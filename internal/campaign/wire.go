package campaign

import (
	"fmt"

	"astro/internal/hw"
	"astro/internal/ir"
	"astro/internal/rl"
	"astro/internal/sim"
)

// Wire-cell kinds. A WireJob is either a simulation cell (the zero value,
// for compatibility with pre-train-lease coordinators) or a training cell.
const (
	KindSim   = ""      // simulate a Job; result bytes are sim.EncodeResult
	KindTrain = "train" // train a TrainSpec; result bytes are a trained-agent snapshot
)

// WireJob is a cell in transit between the coordinator and a pull-based
// worker: fully self-contained (the module travels as its ir.Encode bytes,
// so the worker needs no workloads registry or compiler) and content-keyed
// (Key is the coordinator-computed content address; the worker recomputes
// it from the decoded fields and refuses a mismatch, which turns any
// serialization drift into a loud protocol error instead of a silently
// wrong cache entry).
//
// Every cell carries its module's bytes, but neither side pays for them
// per cell: RemoteRunner encodes each module once per run, and a Worker
// decodes, hashes and compiles each distinct module once, through a
// bounded memo keyed by the bytes' SHA-256. A memo hit still recomputes
// and checks Key.
//
// Two kinds of cell cross the wire. Simulation cells (Kind == KindSim)
// decode back into a Job via (*WireJob).Job; their policies travel by
// name, and a trained-agent hybrid travels as its snapshot's content key
// (AgentKey) — the worker fetches the snapshot with GET /work/agents/{key}
// and rebuilds the policy from it. Training cells
// (Kind == KindTrain) decode into a TrainSpec via (*WireJob).TrainSpec
// and reuse the shared fields (module, platform, OS, seed, args, opts)
// plus the Train block for the agent recipe; their result bytes are the
// trained-agent snapshot itself, keyed exactly like the in-process
// trained-agent cache.
type WireJob struct {
	Kind      string `json:"kind,omitempty"` // KindSim or KindTrain
	Index     int    `json:"index"`
	Label     string `json:"label"`
	Benchmark string `json:"benchmark,omitempty"`

	Module   []byte  `json:"module"` // ir.Encode bytes (canonical codec)
	PlatName string  `json:"platform,omitempty"`
	OS       string  `json:"os,omitempty"`
	Actuator string  `json:"actuator,omitempty"`
	Little   int     `json:"little"` // initial config; 0L0B = all cores on
	Big      int     `json:"big"`
	Seed     int64   `json:"seed"`
	Args     []int64 `json:"args,omitempty"`

	// AgentKey carries a simulation cell's hybrid-by-agent-key policy: the
	// content address of the trained-agent snapshot the worker rebuilds
	// the hybrid runtime from (fetched via GET /work/agents/{key}).
	AgentKey string `json:"agent_key,omitempty"`

	// Opts carries the scalar simulator knobs. The policy fields (OS,
	// Actuator, Hybrid) are interfaces and must be nil — Job.Execute
	// enforces policies-by-name, so a wireable job never has them set and
	// they marshal as null.
	Opts sim.Options `json:"opts"`

	// Train carries the training recipe when Kind == KindTrain.
	Train *WireTrain `json:"train,omitempty"`

	// Key is the cell's content address as computed by the coordinator:
	// Job.Key for simulation cells, TrainSpec.Key for training cells.
	Key string `json:"key"`

	// Campaign is the engine campaign that enqueued this cell — telemetry
	// annotation only. It is provably inert: Job()/TrainSpec() never read
	// it, so it cannot reach the recomputed key, the execution, or the
	// result bytes (TestWireCampaignFieldInert pins this).
	Campaign string `json:"campaign,omitempty"`
}

// WireTrain is the training-cell half of a WireJob: the agent recipe that,
// together with the shared module/platform/OS/seed/args/opts fields,
// reconstructs a TrainSpec. Every field participates in TrainSpec.Key, so
// the worker-side key verification covers all of them.
type WireTrain struct {
	Agent    string       `json:"agent,omitempty"` // "dqn" (default) or "tabular"
	DQN      rl.DQNConfig `json:"dqn"`
	Gamma    float64      `json:"gamma,omitempty"`
	Hipster  bool         `json:"hipster,omitempty"`
	Episodes int          `json:"episodes,omitempty"`
}

// Wire serializes the job for remote execution. A job with the deprecated
// Hybrid factory or an unfingerprintable option set is refused; agent-keyed
// hybrid jobs wire (the snapshot travels separately, by content key,
// through GET /work/agents/{key}).
func (j *Job) Wire() (*WireJob, error) { return j.wire("", nil) }

// wire is Wire with the job's key ("" = compute it) and a run's module
// encodings (nil = encode afresh) already in hand: RemoteRunner.Run keys
// each cell once for its store lookup and encodes each module once per
// run, however many cells share it.
func (j *Job) wire(key string, mods moduleBytes) (*WireJob, error) {
	if j.Module == nil {
		return nil, fmt.Errorf("campaign: job %d (%s) has no module", j.Index, j.Label)
	}
	if j.Hybrid != nil {
		return nil, j.refuseHybrid()
	}
	if j.Opts.OS != nil || j.Opts.Actuator != nil || j.Opts.Hybrid != nil {
		return nil, fmt.Errorf("campaign: job %d (%s): set policies by name, not in Opts", j.Index, j.Label)
	}
	if key == "" {
		var cacheable bool
		if key, cacheable = j.Key(); !cacheable {
			return nil, fmt.Errorf("campaign: job %d (%s) is uncacheable; not wireable", j.Index, j.Label)
		}
	}
	return &WireJob{
		Index:     j.Index,
		Label:     j.Label,
		Benchmark: j.Benchmark,
		Module:    mods.encode(j.Module),
		PlatName:  j.PlatName,
		OS:        j.OS,
		Actuator:  j.Actuator,
		Little:    j.Config.Little,
		Big:       j.Config.Big,
		Seed:      j.Seed,
		Args:      j.Args,
		AgentKey:  j.AgentKey,
		Opts:      j.Opts,
		Key:       key,
	}, nil
}

// moduleBytes memoizes ir.Encode per module pointer for one RemoteRunner
// call, so the cells that share a module share its bytes. It lives only as
// long as the call: a process-global memo would pin every module a
// long-running coordinator ever wired. A nil moduleBytes encodes afresh.
type moduleBytes map[*ir.Module][]byte

func (mb moduleBytes) encode(m *ir.Module) []byte {
	if b, ok := mb[m]; ok {
		return b
	}
	b := ir.Encode(m)
	if mb != nil {
		mb[m] = b
	}
	return b
}

// Job reconstructs the executable job and verifies its identity: the key
// recomputed from the decoded fields must equal the coordinator's. A
// mismatch means the two processes disagree about what the job *is* (codec
// drift, version skew) and executing it would poison the content-addressed
// store, so it is an error, not a warning.
func (wj *WireJob) Job() (*Job, error) { return wj.job(new(moduleMemo)) }

// job is Job decoding the module through a worker's memo. A memo hit skips
// the decode and the re-encode for hashing, never the key check.
func (wj *WireJob) job(mods *moduleMemo) (*Job, error) {
	if wj.Kind != KindSim {
		return nil, fmt.Errorf("campaign: wire cell %q has kind %q, not a simulation job", wj.Label, wj.Kind)
	}
	mod, hash, err := mods.decode(wj.Module)
	if err != nil {
		return nil, fmt.Errorf("campaign: wire job %q: module: %w", wj.Label, err)
	}
	j := &Job{
		Index:     wj.Index,
		Label:     wj.Label,
		Benchmark: wj.Benchmark,
		Module:    mod,
		PlatName:  wj.PlatName,
		OS:        wj.OS,
		Actuator:  wj.Actuator,
		Config:    hw.Config{Little: wj.Little, Big: wj.Big},
		Seed:      wj.Seed,
		Args:      wj.Args,
		AgentKey:  wj.AgentKey,
		Opts:      wj.Opts,
		modHash:   hash,
	}
	key, ok := j.Key()
	if !ok {
		return nil, fmt.Errorf("campaign: wire job %q decodes to an uncacheable job", wj.Label)
	}
	if key != wj.Key {
		return nil, fmt.Errorf("campaign: wire job %q key mismatch: coordinator %s, worker %s (codec drift?)", wj.Label, wj.Key, key)
	}
	return j, nil
}

// Wire serializes the training cell for remote execution. Its Key is the
// spec's trained-agent cache key, so a training lease finished anywhere in
// the fleet lands in the store under exactly the address TrainCell — on
// any machine — consults.
func (ts *TrainSpec) Wire() (*WireJob, error) { return ts.wire("", nil) }

// wire is Wire with the spec's key ("" = compute it) and a run's module
// encodings (nil = encode afresh) already in hand, like (*Job).wire.
func (ts *TrainSpec) wire(key string, mods moduleBytes) (*WireJob, error) {
	if ts.Module == nil {
		return nil, fmt.Errorf("campaign: train spec %q has no module", ts.Label)
	}
	if key == "" {
		var err error
		if key, err = ts.Key(); err != nil { // also rejects policy interfaces left in Opts
			return nil, err
		}
	}
	return &WireJob{
		Kind:     KindTrain,
		Label:    ts.Label,
		Module:   mods.encode(ts.Module),
		PlatName: ts.PlatName,
		OS:       ts.OS,
		Seed:     ts.Seed,
		Args:     ts.Args,
		Opts:     ts.Opts,
		Train: &WireTrain{
			Agent:    ts.Agent,
			DQN:      ts.DQN,
			Gamma:    ts.Gamma,
			Hipster:  ts.Hipster,
			Episodes: ts.Episodes,
		},
		Key: key,
	}, nil
}

// TrainSpec reconstructs the training cell and verifies its identity
// against the coordinator's key, exactly like (*WireJob).Job does for
// simulation cells: the recomputed trained-agent cache key must match, or
// the worker would train the wrong recipe and store it under the
// coordinator's address.
func (wj *WireJob) TrainSpec() (*TrainSpec, error) { return wj.trainSpec(new(moduleMemo)) }

// trainSpec is TrainSpec decoding the module through a worker's memo, like
// (*WireJob).job.
func (wj *WireJob) trainSpec(mods *moduleMemo) (*TrainSpec, error) {
	if wj.Kind != KindTrain || wj.Train == nil {
		return nil, fmt.Errorf("campaign: wire cell %q has kind %q, not a training cell", wj.Label, wj.Kind)
	}
	mod, hash, err := mods.decode(wj.Module)
	if err != nil {
		return nil, fmt.Errorf("campaign: wire train cell %q: module: %w", wj.Label, err)
	}
	ts := &TrainSpec{
		Label:    wj.Label,
		Module:   mod,
		PlatName: wj.PlatName,
		OS:       wj.OS,
		Agent:    wj.Train.Agent,
		DQN:      wj.Train.DQN,
		Gamma:    wj.Train.Gamma,
		Hipster:  wj.Train.Hipster,
		Episodes: wj.Train.Episodes,
		Seed:     wj.Seed,
		Args:     wj.Args,
		Opts:     wj.Opts,
	}
	key, err := ts.key(hash)
	if err != nil {
		return nil, fmt.Errorf("campaign: wire train cell %q: %w", wj.Label, err)
	}
	if key != wj.Key {
		return nil, fmt.Errorf("campaign: wire train cell %q key mismatch: coordinator %s, worker %s (codec drift?)", wj.Label, wj.Key, key)
	}
	return ts, nil
}
