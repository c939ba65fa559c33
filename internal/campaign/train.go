package campaign

// Trained-agent memoization: Q-learning training is a sequential process
// whose episodes feed the next, so it cannot be cached as simulation jobs —
// it was the residual ~30s of a warm-cache paper suite. But a *finished*
// training run is a pure function of its inputs: the learning-instrumented
// module, the platform, the agent kind and hyper-parameters, the reward
// exponent, the episode count, the seed, the program arguments and the
// simulator knobs. TrainCell content-addresses the trained agent under a
// key derived from exactly those inputs and stores an inference-exact
// snapshot (rl.Snapshot) in the campaign store, so a warm-cache suite run
// skips training entirely; TrainCells fans independent cells out across
// workers the way Pool shards simulation jobs.

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"astro/internal/hw"
	"astro/internal/instrument"
	"astro/internal/ir"
	"astro/internal/rl"
	"astro/internal/sched"
	"astro/internal/sim"
)

// TrainSpec fully describes one training cell. Every field participates in
// the cache key (via Key) except Label.
type TrainSpec struct {
	Label    string
	Module   *ir.Module // the learning-instrumented binary
	PlatName string     // "" = DefaultPlatform
	OS       string     // OS policy by name, as in Job ("" or "gts")
	Agent    string     // "dqn" (default) or "tabular"
	DQN      rl.DQNConfig
	Gamma    float64 // reward exponent; 0 = the paper's 2.0
	Hipster  bool    // phase-blind variant (no program phases in the state)
	Episodes int     // 0 = sched.Train's default
	Seed     int64
	Args     []int64
	Opts     sim.Options // scalar knobs only; policies must be nil
}

// Key returns the cell's content address. Like Job.Key, it is a SHA-256
// over every input that can influence the trained agent, appended into a
// stack buffer; testdata/keys.golden pins the bytes.
func (ts *TrainSpec) Key() (string, error) { return ts.key("") }

// key is Key with the module's hash already in hand ("" = hash it here).
func (ts *TrainSpec) key(modHash string) (string, error) {
	if ts.Opts.OS != nil || ts.Opts.Actuator != nil || ts.Opts.Hybrid != nil {
		return "", fmt.Errorf("campaign: train spec %q: set policies by name, not in Opts", ts.Label)
	}
	episodes := ts.Episodes
	if episodes == 0 {
		episodes = 12 // sched.Train's default
	}
	gamma := ts.Gamma
	if gamma == 0 {
		gamma = 2.0
	}
	agent := ts.Agent
	if agent == "" {
		agent = "dqn"
	}
	if modHash == "" {
		modHash = ModuleHash(ts.Module)
	}
	plat := ts.PlatName
	if plat == "" {
		plat = DefaultPlatform
	}
	var buf [1024]byte
	b := append(buf[:0], "astro-trained-agent-v1\n"...)
	b = append(append(b, modHash...), '\n')
	b = append(append(b, plat...), '\n')
	b = append(append(b, ts.OS...), '\n')
	b = append(append(b, agent...), '\n')
	b = append(appendDQNConfig(b, ts.DQN), '\n')
	b = strconv.AppendFloat(append(b, "gamma="...), gamma, 'g', -1, 64)
	b = strconv.AppendBool(append(b, " hipster="...), ts.Hipster)
	b = strconv.AppendInt(append(b, " episodes="...), int64(episodes), 10)
	b = strconv.AppendInt(append(b, " seed="...), ts.Seed, 10)
	b = append(appendArgs(append(b, '\n'), ts.Args), '\n')
	opts := ts.Opts
	opts.Seed, opts.Args = 0, nil
	b, err := opts.AppendFingerprint(b)
	if err != nil {
		return "", err
	}
	return hexSHA256(b), nil
}

// appendDQNConfig appends the bytes fmt's %+v prints for c, the form
// every stored training key was built from; TestAppendDQNConfigMatchesPlusV
// holds the two equal.
func appendDQNConfig(b []byte, c rl.DQNConfig) []byte {
	b = strconv.AppendInt(append(b, "{Hidden:"...), int64(c.Hidden), 10)
	b = strconv.AppendFloat(append(b, " LR:"...), c.LR, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, " Discount:"...), c.Discount, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, " Eps0:"...), c.Eps0, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, " EpsMin:"...), c.EpsMin, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, " EpsDecay:"...), c.EpsDecay, 'g', -1, 64)
	b = strconv.AppendInt(append(b, " Seed:"...), c.Seed, 10)
	b = strconv.AppendInt(append(b, " Replay:"...), int64(c.Replay), 10)
	return append(b, '}')
}

// Trained is a training cell's outcome.
type Trained struct {
	Agent    rl.Agent
	Visits   []rl.State
	Stats    []sched.EpisodeStat
	CacheHit bool
}

// trainedSnapshot is the stored byte form of a finished training cell.
type trainedSnapshot struct {
	Agent  *rl.Snapshot        `json:"agent"`
	Visits []rl.State          `json:"visits"`
	Stats  []sched.EpisodeStat `json:"stats"`
}

// restoreTrained decodes stored training-cell bytes and restores the
// agent. It is the single gate between snapshot bytes and a usable
// Trained — the warm-cache path, the queue's train-result validation, the
// worker's agent fetch and agent-keyed jobs all trust exactly this check;
// agent-keyed jobs pass each distinct byte string through it once per
// process (restoreShared).
func restoreTrained(data []byte) (*Trained, error) {
	snap, err := decodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	return snap.restore()
}

// restoredAgent is what an agent-keyed hybrid cell builds from a snapshot:
// the restored agent and its visited-state static policy. Cells share both
// read-only; a *rl.DQN is consulted only through its own Inference handle.
type restoredAgent struct {
	agent  rl.Agent
	policy *instrument.Policy
}

// restoredKey names a restoredAgent: the SHA-256 of the snapshot bytes, so
// different bytes under one agent key never share an entry, and the
// platform, which the extracted policy depends on.
type restoredKey struct {
	sum  [sha256.Size]byte
	plat string
}

// restoredAgents memoizes restoreShared for the whole process. An entry is
// a pure function of its key, so sharing it across callers changes no
// result, only how often the same agent is restored.
var restoredAgents fifoMemo[restoredKey, *restoredAgent]

// restoreShared returns the agent the snapshot bytes restore to and its
// visited-state policy on plat (named platName), restoring and extracting
// them only on a memo miss. Only bytes restoreTrained accepts enter the
// memo, so its check still gates every distinct byte string; a failed
// restore is not memoized.
func restoreShared(data []byte, platName string, plat *hw.Platform) (*restoredAgent, error) {
	k := restoredKey{sum: sha256.Sum256(data), plat: platName}
	if ra, ok := restoredAgents.get(k); ok {
		return ra, nil
	}
	tr, err := restoreTrained(data)
	if err != nil {
		return nil, err
	}
	ra := &restoredAgent{agent: tr.Agent, policy: sched.ExtractPolicyVisited(tr.Agent, plat, tr.Visits)}
	return restoredAgents.add(k, ra), nil
}

// restore rebuilds the snapshot's agent.
func (snap *trainedSnapshot) restore() (*Trained, error) {
	agent, err := snap.Agent.Restore()
	if err != nil {
		return nil, fmt.Errorf("campaign: trained-agent snapshot does not restore: %w", err)
	}
	return &Trained{Agent: agent, Visits: snap.Visits, Stats: snap.Stats}, nil
}

// decodeSnapshot parses stored training-cell bytes without restoring the
// agent.
func decodeSnapshot(data []byte) (*trainedSnapshot, error) {
	var snap trainedSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("campaign: not a trained-agent snapshot: %w", err)
	}
	if snap.Agent == nil {
		return nil, fmt.Errorf("campaign: trained-agent snapshot has no agent")
	}
	return &snap, nil
}

// TrainCell trains one cell, consulting store first (nil store trains
// fresh). A cache hit restores an inference-exact agent: Best/Q — and
// therefore extracted policies and hybrid decisions — are bit-identical to
// the freshly trained agent's, so warm and cold suite runs produce
// byte-identical results.
func TrainCell(store ResultStore, ts *TrainSpec) (*Trained, error) {
	if ts.Module == nil {
		return nil, fmt.Errorf("campaign: train spec %q has no module", ts.Label)
	}
	key, err := ts.Key()
	if err != nil {
		return nil, err
	}
	if store != nil {
		if data, ok := store.Get(key); ok {
			if tr, err := restoreTrained(data); err == nil {
				tr.CacheHit = true
				cTrainHit.Inc()
				return tr, nil
			}
			// A corrupt snapshot falls through to fresh training, which
			// overwrites it.
		}
	}

	plat, err := hw.ByName(ts.platformName())
	if err != nil {
		return nil, err
	}
	opts := ts.Opts
	if opts.OS, err = buildOS(ts.OS); err != nil {
		return nil, err
	}
	trainStart := time.Now()
	tr, err := sched.TrainAstro(ts.Module, plat, ts.Agent, ts.DQN, ts.Hipster, ts.Gamma, sched.TrainOptions{
		Episodes: ts.Episodes,
		Seed:     ts.Seed,
		Args:     ts.Args,
		SimOpts:  opts,
	})
	if err != nil {
		cTrainErr.Inc()
		return nil, fmt.Errorf("campaign: train %q: %w", ts.Label, err)
	}
	cTrainFresh.Inc()
	hTrain.Observe(time.Since(trainStart).Seconds())
	out := &Trained{Agent: tr.Agent, Visits: tr.Visits, Stats: tr.Stats}
	if store != nil {
		if data, err := snapshotBytes(out); err == nil && data != nil {
			// Best effort, like Pool's cache fill: a failed Put only costs
			// future memoization.
			_ = store.Put(key, data)
		}
	}
	return out, nil
}

// snapshotBytes serializes a finished training cell into its canonical
// stored byte form. A nil, nil return means the agent kind cannot be
// snapshotted (usable in-process, just not cacheable or wireable).
func snapshotBytes(tr *Trained) ([]byte, error) {
	var snap trainedSnapshot
	switch a := tr.Agent.(type) {
	case *rl.DQN:
		snap.Agent = a.Snapshot()
	case *rl.Tabular:
		snap.Agent = a.Snapshot()
	default:
		return nil, nil
	}
	snap.Visits = tr.Visits
	snap.Stats = tr.Stats
	return json.Marshal(&snap)
}

func (ts *TrainSpec) platformName() string {
	if ts.PlatName == "" {
		return DefaultPlatform
	}
	return ts.PlatName
}

// TrainCells trains independent cells on workers goroutines with the same
// deterministic partition as Pool.Run. Each cell is internally sequential
// (episodes feed the next), but cells share nothing, so the result set is
// identical for any worker count — the training counterpart of the
// -j1 ≡ -j8 campaign invariant.
func TrainCells(store ResultStore, specs []*TrainSpec, workers int) ([]*Trained, error) {
	outs := make([]*Trained, len(specs))
	errs := make([]error, len(specs))
	partition(len(specs), workers, func(i, _ int) {
		outs[i], errs[i] = TrainCell(store, specs[i])
	})
	return outs, cellErrors(specs, errs)
}

// cellErrors joins a training batch's per-cell errors, naming each cell.
func cellErrors(specs []*TrainSpec, errs []error) error {
	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("cell %d (%s): %w", i, specs[i].Label, err))
		}
	}
	return errors.Join(joined...)
}
