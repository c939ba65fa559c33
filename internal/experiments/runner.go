package experiments

import (
	"context"
	"fmt"
	"sync"

	"astro/internal/campaign"
	"astro/internal/sim"
)

// The figure drivers execute their simulation sweeps through a shared
// campaign runner instead of inline loops: sweeps become job batches that
// run on -j workers with content-addressed caching, so astro-experiments
// -j 8 parallelizes every cross-product and a re-run against a warm cache
// skips the simulations entirely. The runner is pluggable: the default is
// an in-process pool (which keeps `go test` behaviour identical to the old
// inline loops), and cmd/astro-experiments swaps in a
// campaign.RemoteRunner when it coordinates a worker fleet — the simulator
// is deterministic, so the backend never changes results, only where the
// cycles burn (internal/campaign's determinism and remote byte-identity
// tests hold the proof). Training batches route through the same seam:
// the runner must also implement campaign.Trainer (Pool and RemoteRunner
// do), so fig10-style training cells follow the runner — leased to the
// fleet under a remote runner, sharded in-process otherwise.
var (
	execMu      sync.RWMutex
	execWorkers                      = 1
	execStore   campaign.ResultStore = campaign.NewMemStore()
	execRunner  campaign.Runner      = &campaign.Pool{Workers: 1, Store: execStore}
	execCtx                          = context.Background()
	execCustom  bool                 // a caller-supplied Runner is installed; don't rebuild the pool over it
)

// ExecConfig reconfigures the shared executor. Zero/nil fields keep the
// current setting.
type ExecConfig struct {
	Workers int                  // pool width (astro-experiments -j)
	Store   campaign.ResultStore // result cache (e.g. disk-backed for warm re-runs)
	Ctx     context.Context      // deadline/cancellation (astro-experiments -timeout)
	// Runner overrides the execution backend entirely (astro-experiments
	// -remote builds a campaign.RemoteRunner). When nil, the executor is an
	// in-process pool over Workers and Store.
	Runner campaign.Runner
}

// Configure applies cfg to the executor used by all figure drivers.
func Configure(cfg ExecConfig) {
	execMu.Lock()
	defer execMu.Unlock()
	if cfg.Workers > 0 {
		execWorkers = cfg.Workers
	}
	if cfg.Store != nil {
		execStore = cfg.Store
	}
	if cfg.Ctx != nil {
		execCtx = cfg.Ctx
	}
	if cfg.Runner != nil {
		execRunner, execCustom = cfg.Runner, true
		return
	}
	if execCustom {
		// "Zero/nil fields keep the current setting": a later Configure
		// that only tweaks Workers/Store/Ctx must not silently demote an
		// installed RemoteRunner back to an in-process pool. To revert,
		// pass the pool explicitly.
		return
	}
	execRunner = &campaign.Pool{Workers: execWorkers, Store: execStore}
}

// Store returns the executor's result store. Figure drivers use it to
// memoize trained agents next to the simulation results they produce, so a
// disk-backed -cache directory also persists training across runs.
func Store() campaign.ResultStore {
	execMu.RLock()
	defer execMu.RUnlock()
	return execStore
}

// runBatch executes jobs on the shared runner and returns their results in
// job order, failing on the first job error.
func runBatch(jobs []*campaign.Job) ([]*sim.Result, error) {
	execMu.RLock()
	runner, ctx := execRunner, execCtx
	execMu.RUnlock()
	outs, err := runner.Run(ctx, jobs, nil)
	if err != nil {
		return nil, err
	}
	return campaign.Results(outs)
}

// trainBatch executes training cells on the shared runner's Trainer (Pool
// and RemoteRunner both implement it), so fig10's per-benchmark training
// distributes exactly like its sampling.
func trainBatch(specs []*campaign.TrainSpec) ([]*campaign.Trained, error) {
	execMu.RLock()
	runner, ctx := execRunner, execCtx
	execMu.RUnlock()
	tr, ok := runner.(campaign.Trainer)
	if !ok {
		return nil, fmt.Errorf("experiments: runner %T cannot train", runner)
	}
	return tr.Train(ctx, specs)
}
