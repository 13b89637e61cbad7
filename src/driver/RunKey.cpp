//===- driver/RunKey.cpp - Canonical run fingerprints ------------------------===//

#include "driver/RunKey.h"

#include "hw/Event.h"
#include "prof/Acquisition.h"
#include "prof/Mode.h"
#include "support/Format.h"

using namespace pp;
using namespace pp::driver;

namespace {

void appendCache(std::string &Out, const char *Label,
                 const hw::CacheConfig &Config) {
  Out += formatString(";%s=%llu/%llu/%u", Label,
                      (unsigned long long)Config.SizeBytes,
                      (unsigned long long)Config.LineBytes,
                      Config.Associativity);
}

} // namespace

RunKey RunKey::of(const RunPlan &Plan) {
  RunKey Key;
  const prof::SessionOptions &O = Plan.Options;
  const prof::ProfileConfig &C = O.Config;
  const hw::CostModel &Cost = O.MachineCfg.Cost;

  // An instrumentation-filter callback selects functions in ways no
  // fingerprint can name; such runs must re-execute.
  Key.Cacheable = Plan.Cacheable && !C.ShouldInstrument;

  std::string &F = Key.Fingerprint;
  F = "v2;wl=" + Plan.Workload;
  F += formatString(";scale=%d;mode=%s;pic0=%s;pic1=%s;sites=%d", Plan.Scale,
                    prof::modeName(C.M), hw::eventName(C.Pic0),
                    hw::eventName(C.Pic1), C.DistinguishCallSites ? 1 : 0);
  F += formatString(";fold=%d;arr=%llu", C.Plan.FoldFinalValues ? 1 : 0,
                    (unsigned long long)C.Plan.ArrayThreshold);
  F += formatString(
      ";cost=%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu",
      (unsigned long long)Cost.DCacheMissPenalty,
      (unsigned long long)Cost.ICacheMissPenalty,
      (unsigned long long)Cost.MispredictPenalty,
      (unsigned long long)Cost.DivCycles, (unsigned long long)Cost.FpLatency,
      (unsigned long long)Cost.FpDivLatency,
      (unsigned long long)Cost.LoadLatency,
      (unsigned long long)Cost.StoreBufferDepth,
      (unsigned long long)Cost.StoreDrainCycles);
  appendCache(F, "dc", O.MachineCfg.DCache);
  appendCache(F, "ic", O.MachineCfg.ICache);
  F += formatString(";max=%llu;sig=%s:%llu",
                    (unsigned long long)O.MaxInsts, O.SignalHandler.c_str(),
                    (unsigned long long)O.SignalInterval);
  F += formatString(";eng=%s", vm::engineName(O.Engine));
  // The acquisition dimension. Appended only for non-exact runs so every
  // pre-seam fingerprint — all of which were implicitly exact — keeps its
  // exact byte string, hash, and cache file. The trap-delivery cost joins
  // here rather than in the cost tuple for the same reason: it cannot
  // affect an exact run.
  if (O.Acq.Kind != prof::Acquisition::Exact)
    F += formatString(";acq=%s:p%u:n%llu:s%llu:t%llu",
                      prof::acquisitionName(O.Acq.Kind), O.Acq.Pic,
                      (unsigned long long)O.Acq.Period,
                      (unsigned long long)O.Acq.Seed,
                      (unsigned long long)Cost.TrapDeliveryCycles);
  // The optimizer dimension follows the same append-only convention as
  // ;acq=: only non-baseline runs carry it, so every pre-optimizer
  // fingerprint keeps its byte string, hash, and cache file.
  if (!Plan.OptVariant.empty())
    F += ";opt=" + Plan.OptVariant;
  // The k-BL window dimension, append-only like ;acq= and ;opt=: k=1 runs
  // are classic Ball-Larus and keep every legacy fingerprint byte, hash,
  // and cache file.
  if (C.K > 1)
    F += formatString(";k=%u", C.K);
  return Key;
}
