package campaign

import "context"

// ResultStore is the storage contract the campaign machinery memoizes
// through: canonical result bytes (simulation results, trained-agent
// snapshots) addressed by content key. Implementations must be safe for
// concurrent use; Get/Put must be coherent (a Put followed by a Get of the
// same key returns the stored bytes). ShardedStore (memory or
// prefix-sharded disk) implements it, and so does a worker's read-through
// onto its coordinator's store.
type ResultStore interface {
	Get(key string) ([]byte, bool)
	Put(key string, data []byte) error
}

// Runner executes a job batch and returns one outcome per job, in job
// order. Pool runs jobs in-process on a worker pool; RemoteRunner leases
// them to pull-based workers over HTTP. Both consult the same ResultStore
// and produce byte-identical outcomes for the same batch (the remote
// byte-identity test pins this), which is what makes them drop-in
// replacements for each other behind the Engine.
type Runner interface {
	Run(ctx context.Context, jobs []*Job, onProgress func(Progress)) ([]*Outcome, error)
}

// Trainer is the training counterpart of Runner: execute a batch of
// training cells and return one Trained per spec, in spec order,
// consulting (and filling) the trained-agent cache. *Pool trains
// in-process via TrainCells; *RemoteRunner leases training cells to
// pull-based workers, so fig10-style suites distribute their training the
// same way they distribute simulations. Both restore inference-exact
// agents, so which Trainer ran a cell never changes downstream bytes.
type Trainer interface {
	Train(ctx context.Context, specs []*TrainSpec) ([]*Trained, error)
}
