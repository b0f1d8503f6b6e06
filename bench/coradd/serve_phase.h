// The serving half of a bench_coradd run: the design CORADD chose is
// installed in a ServingEngine and served under the workload's traffic,
// with maintenance insert batches beside the reads.
#pragma once

#include <cstdint>

#include "core/context.h"
#include "core/design.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace coradd::bench_coradd {

/// Builds the engine on `design` kSetupRepeats times (the last one serves),
/// runs every query solo as many times for reference answers and solo
/// times, then serves for a warm-up plus `seconds` of measured traffic.
/// Checks every served answer against its reference and the maintenance
/// cost against SimulateInsertions of the same total. Spans go to `trace`
/// when it is not null. Returns the set-up seconds: the median engine build
/// plus the median pass of reference runs.
double Serve(const DesignContext& context, const DatabaseDesign& design,
             const Workload& workload, const WorkloadSpec& spec,
             uint64_t seed, double seconds, SpanRecorder* trace,
             Report* report);

}  // namespace coradd::bench_coradd
