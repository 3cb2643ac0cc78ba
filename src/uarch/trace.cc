#include "uarch/trace.hh"

namespace xui
{

namespace
{

const char *
opClassName(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu:
        return "IntAlu";
      case OpClass::IntMult:
        return "IntMult";
      case OpClass::FpAlu:
        return "FpAlu";
      case OpClass::FpMult:
        return "FpMult";
      case OpClass::MemRead:
        return "MemRead";
      case OpClass::MemWrite:
        return "MemWrite";
      case OpClass::Branch:
        return "Branch";
      case OpClass::SerializeMsr:
        return "SerializeMsr";
      case OpClass::McodeOverhead:
        return "Mcode";
      case OpClass::Rdtsc:
        return "Rdtsc";
      case OpClass::Nop:
        return "Nop";
    }
    return "?";
}

} // namespace

void
StreamTracer::event(TraceEvent ev, Cycles cycle, std::uint64_t seq,
                    std::uint32_t pc, OpClass cls)
{
    os_ << cycle << ": " << traceEventName(ev);
    if (seq != 0) {
        os_ << " sn:" << seq << " pc:";
        if (pc == 0xffffffffu)
            os_ << "ucode";
        else
            os_ << pc;
        os_ << ' ' << opClassName(cls);
    }
    os_ << '\n';
}

} // namespace xui
