package sim

import "astro/internal/telemetry"

// Telemetry instruments for the simulator, registered on the shared
// Default registry. All of them are flushed off the hot path: per-run
// totals accumulate in plain Machine/core fields during execution and
// land here with one atomic add each when Run finishes, so the
// steady-state quantum stays 0 allocs/op and free of atomic traffic
// (see DESIGN.md invariant 8). Compile-side counters fire once per
// module, under the progCache lock that already serializes compilation.
var (
	mRuns       = telemetry.Default.Counter("astro_sim_runs_total", "Completed Machine.Run executions.")
	mQuanta     = telemetry.Default.Counter("astro_sim_quanta_total", "Scheduling quanta executed across all runs.")
	mInstr      = telemetry.Default.Counter("astro_sim_instructions_total", "Simulated instructions retired.")
	mCycles     = telemetry.Default.Counter("astro_sim_cycles_total", "Simulated core cycles consumed by compute bursts.")
	mSuperops   = telemetry.Default.Counter("astro_sim_superops_total", "Fused superops emitted by the fast-path compiler (static count).")
	mCompiles   = telemetry.Default.Counter("astro_sim_compiles_total", "Module fast-path compilations (progCache misses).")
	mCompileHit = telemetry.Default.Counter("astro_sim_compile_cache_hits_total", "progCache hits for already-compiled modules.")
)

// countSuperops returns the number of fused superop slots in a compiled
// program — a static property of the module, counted once at compile
// time rather than per executed instruction.
func countSuperops(p *Program) uint64 {
	var n uint64
	for i := range p.funcs {
		for j := range p.funcs[i].code {
			if p.funcs[i].code[j].op >= opConstConst {
				n++
			}
		}
	}
	return n
}
