//===- hw/Machine.h - The simulated processor ------------------*- C++ -*-===//
///
/// \file
/// The simulated UltraSPARC-like machine: memory image, L1 D- and I-caches,
/// branch predictor, store buffer, performance counters, and the cycle
/// accounting that ties them together. The VM drives it one instruction at
/// a time; the profiling runtime charges it the footprint of runtime
/// pseudo-op expansions so instrumentation perturbs the machine exactly as
/// inline code would.
///
//===----------------------------------------------------------------------===//

#ifndef PP_HW_MACHINE_H
#define PP_HW_MACHINE_H

#include "hw/BranchPredictor.h"
#include "hw/CacheSim.h"
#include "hw/CostModel.h"
#include "hw/MemoryImage.h"
#include "hw/PerfCounters.h"
#include "support/Compiler.h"

namespace pp {
namespace hw {

/// Full machine configuration.
struct MachineConfig {
  CostModel Cost;
  CacheConfig DCache = dcacheDefault();
  CacheConfig ICache = icacheDefault();
};

/// Event-accurate machine model.
class Machine {
public:
  explicit Machine(const MachineConfig &Config = MachineConfig())
      : Cost(Config.Cost), DCache(Config.DCache), ICache(Config.ICache) {}

  // --- Program-visible accesses (counted) --------------------------------

  /// Fetch + issue of one instruction: I-cache access, one instruction, one
  /// base cycle.
  PP_ALWAYS_INLINE void beginInst(uint64_t Addr) {
    Counters.count(Event::Insts, 1);
    Counters.count(Event::Cycles, 1);
    fetch(Addr);
  }

  /// The I-cache half of beginInst: probes the line holding \p Addr and
  /// charges a miss. An engine that batches the issue half calls this,
  /// then chargeInsts for the instructions it retired.
  PP_ALWAYS_INLINE void fetch(uint64_t Addr) {
    if (ICache.access(Addr, 4)) {
      Counters.count(Event::ICacheMiss, 1);
      Counters.count(Event::Cycles, Cost.ICacheMissPenalty);
    }
  }

  /// Masks a code address down to its I-cache line: fetches with equal
  /// masked addresses hit the same line.
  uint64_t fetchLineMask() const { return ~(ICache.config().LineBytes - 1); }

  /// Counted data read. A line-straddling access that misses both touched
  /// lines counts (and pays for) both misses.
  PP_ALWAYS_INLINE uint64_t load(uint64_t Addr, unsigned Size) {
    if (unsigned MissedLines = DCache.access(Addr, Size)) {
      Counters.count(Event::DCacheReadMiss, MissedLines);
      Counters.count(Event::Cycles, MissedLines * Cost.DCacheMissPenalty);
    }
    return Mem.peek(Addr, Size);
  }

  /// Counted data write, including store-buffer modelling.
  PP_ALWAYS_INLINE void store(uint64_t Addr, unsigned Size, uint64_t Value) {
    if (unsigned MissedLines = DCache.access(Addr, Size)) {
      Counters.count(Event::DCacheWriteMiss, MissedLines);
      Counters.count(Event::Cycles, MissedLines * Cost.DCacheMissPenalty);
    }
    noteStoreIssued();
    Mem.poke(Addr, Size, Value);
  }

  /// Counted data access without data movement: cache, store-buffer, and
  /// event effects only. The profiling runtime uses it to charge the
  /// machine the memory traffic of a pseudo-op's inline expansion (the
  /// data itself lives in host-side structures).
  void touchData(uint64_t Addr, unsigned Size, bool IsWrite) {
    if (unsigned MissedLines = DCache.access(Addr, Size)) {
      Counters.count(IsWrite ? Event::DCacheWriteMiss
                             : Event::DCacheReadMiss,
                     MissedLines);
      Counters.count(Event::Cycles, MissedLines * Cost.DCacheMissPenalty);
    }
    if (IsWrite)
      noteStoreIssued();
  }

  /// Conditional-branch resolution.
  void condBranch(uint64_t Addr, bool Taken) {
    if (!Predictor.predictConditional(Addr, Taken))
      stall(Event::MispredictStall, Cost.MispredictPenalty);
  }

  /// Indirect transfer resolution (switch, indirect call).
  void indirectBranch(uint64_t Addr, uint64_t Target) {
    if (!Predictor.predictIndirect(Addr, Target))
      stall(Event::MispredictStall, Cost.MispredictPenalty);
  }

  /// Adds \p Cycles stall cycles attributed to \p Kind.
  void stall(Event Kind, uint64_t Cycles) {
    Counters.count(Kind, Cycles);
    Counters.count(Event::Cycles, Cycles);
  }

  /// Adds plain execution cycles (multi-cycle ops such as divide).
  void addCycles(uint64_t Cycles) { Counters.count(Event::Cycles, Cycles); }

  /// Charges \p N instructions' base cost without an I-cache access; used
  /// by the profiling runtime for pseudo-op expansions whose code footprint
  /// is charged separately.
  void chargeInsts(uint64_t N) {
    Counters.count(Event::Insts, N);
    Counters.count(Event::Cycles, N);
  }

  /// Current cycle count.
  uint64_t now() const { return Counters.total(Event::Cycles); }

  // --- Uncounted accesses (loader / result readback) ----------------------

  uint64_t peek(uint64_t Addr, unsigned Size) const {
    return Mem.peek(Addr, Size);
  }
  void poke(uint64_t Addr, unsigned Size, uint64_t Value) {
    Mem.poke(Addr, Size, Value);
  }
  MemoryImage &memory() { return Mem; }
  const MemoryImage &memory() const { return Mem; }

  PerfCounters &counters() { return Counters; }
  const PerfCounters &counters() const { return Counters; }
  const CostModel &cost() const { return Cost; }

private:
  void noteStoreIssued() {
    uint64_t Now = now();
    if (StoreDrainCycle < Now)
      StoreDrainCycle = Now;
    StoreDrainCycle += Cost.StoreDrainCycles;
    uint64_t BufferedCycles = StoreDrainCycle - Now;
    uint64_t Capacity = Cost.StoreBufferDepth * Cost.StoreDrainCycles;
    if (BufferedCycles > Capacity)
      stall(Event::StoreBufferStall, BufferedCycles - Capacity);
  }

  CostModel Cost;
  MemoryImage Mem;
  CacheSim DCache;
  CacheSim ICache;
  BranchPredictor Predictor;
  PerfCounters Counters;
  uint64_t StoreDrainCycle = 0;
};

} // namespace hw
} // namespace pp

#endif // PP_HW_MACHINE_H
