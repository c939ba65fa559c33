// Package campaign is the scaling substrate of the reproduction: it treats
// one deterministic simulation as a schedulable, memoizable unit of work
// and executes whole evaluation sweeps — benchmark × platform × scheduler ×
// hardware configuration × seed grids — on a bounded worker pool with
// content-addressed result caching.
//
// The pieces compose bottom-up:
//
//   - Job: one fully-specified simulation. Its Key is a SHA-256 over every
//     input that can influence the result (module IR bytes, platform,
//     scheduler policy, initial configuration, seed, arguments, simulator
//     knobs), so two byte-identical jobs are the same job. A trained hybrid
//     policy lives outside those bytes, so a job names it by its
//     snapshot's content key (AgentKey), which the key then covers.
//   - ResultStore: the storage contract — canonical bytes by content key —
//     implemented by ShardedStore (key-prefix shards, in memory with an
//     optional crash-safe on-disk tier and index; NewMemStore is its
//     one-shard memory-only form). A worker reads trained-agent snapshots
//     through to its coordinator's store over HTTP.
//   - Runner: the execution contract, implemented by Pool (in-process
//     worker pool with deterministic static sharding) and RemoteRunner
//     (cells leased to pull-based workers over HTTP via a WorkQueue, with
//     lease expiry, retry, and result validation). The two are drop-in
//     replacements: same jobs, same keys, byte-identical outcomes.
//   - Spec: the declarative campaign description (JSON-friendly) that
//     expands into a job list in a fixed order.
//   - Engine: the campaign lifecycle manager behind cmd/astro-serve —
//     submit, observe, subscribe to progress, cancel — written against
//     Runner and ResultStore.
//   - Worker: the pull side of the distributed protocol (cmd/astro's
//     worker subcommand): lease WireJob cells, verify their content keys,
//     execute, push canonical results back.
//
// Because the simulator is deterministic, a campaign's result set is a pure
// function of its spec: running with 1 worker or 8, in-process or through
// remote workers, cold or from a warm cache, yields byte-identical result
// sets. The determinism tests and TestRemoteByteIdentity pin exactly this,
// and a warm re-run performs zero fresh simulations on any path.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"astro/internal/hw"
	"astro/internal/ir"
	"astro/internal/rl"
	"astro/internal/sched"
	"astro/internal/sim"
)

// DefaultPlatform is the platform a job runs on when it names none.
const DefaultPlatform = "odroid-xu4"

// Job is one simulation: a compiled module executed on a named platform
// under a named scheduling policy with a fixed seed. Jobs are built either
// declaratively (Spec.Expand) or programmatically (the experiments figure
// drivers construct them around pre-trained modules).
type Job struct {
	Index     int    // position in the campaign, stable across worker counts
	Label     string // human-readable identity for progress lines
	Benchmark string // informational; the module carries the code

	Module   *ir.Module
	PlatName string // "" = DefaultPlatform
	// OS selects the OS-level thread scheduler: "" (least-loaded) or "gts".
	OS string
	// Actuator selects the per-checkpoint adaptation policy: "",
	// "octopus-man", "fixed:<xLyB>", or "random:<seed>".
	Actuator string
	Config   hw.Config // initial hardware configuration; zero = all cores on
	Seed     int64
	Args     []int64
	Opts     sim.Options // scalar knobs only; OS/Actuator/Hybrid must be nil

	// AgentKey names the job's hybrid policy: the content address
	// (TrainSpec.Key) of a trained-agent snapshot in the result store, or
	// "" for no hybrid policy. Execute rebuilds the policy from the
	// snapshot alone — restore the agent, extract the visited-state static
	// policy, wrap both in a HybridRuntime — so the job's behaviour is a
	// pure function of the key. Snapshots are inference-exact and carry
	// their visited states, which makes the rebuilt policy bit-identical on
	// every machine: agent-keyed jobs are cacheable and wireable, and each
	// execution restores a private agent.
	AgentKey string

	// Agents supplies the snapshot store Execute resolves AgentKey
	// against (a local ShardedStore, or a worker's read-through onto its
	// coordinator's store). It is
	// runtime wiring, not identity — never hashed. Pool fills it from its
	// own store when the job leaves it nil.
	Agents ResultStore

	// Deprecated: Hybrid is refused. A live policy factory has no content
	// identity, so Key reports a job that sets it uncacheable and Wire and
	// Execute return an error; name the trained agent by AgentKey instead.
	Hybrid func() sim.HybridPolicy

	// modHash caches the module's content hash; see (*Job).moduleHash.
	modHash string
}

// ModuleHash returns the content hash of a module's IR encoding.
func ModuleHash(m *ir.Module) string {
	h := sha256.New()
	ir.EncodeTo(h, m) // a hash.Hash never returns a write error
	return hex.EncodeToString(h.Sum(nil))
}

// moduleHash returns the job's module hash, computing it once per job.
// Spec.Expand pre-fills it per compiled module so a 24-config sweep hashes
// its module once; there is deliberately no process-global memo — a
// long-running astro-serve would otherwise pin every module it ever
// compiled in memory.
func (j *Job) moduleHash() string {
	if j.modHash == "" {
		j.modHash = ModuleHash(j.Module)
	}
	return j.modHash
}

func (j *Job) platformName() string {
	if j.PlatName == "" {
		return DefaultPlatform
	}
	return j.PlatName
}

// refuseHybrid is the error Wire and Execute return for a job that sets
// the deprecated Hybrid factory.
func (j *Job) refuseHybrid() error {
	return fmt.Errorf("campaign: job %d (%s) sets the deprecated Hybrid factory; name the trained agent by AgentKey", j.Index, j.Label)
}

// Key returns the job's content address and whether the job is cacheable.
// A job that sets the deprecated Hybrid factory is uncacheable (and both
// Wire and Execute refuse it).
//
// The address is the hex SHA-256 of a preimage appended into a stack
// buffer: module hash, platform, OS and actuator names, initial
// configuration, seed and arguments, one per line, then the knob
// fingerprint and, for an agent-keyed job, "agent:<key>" (the snapshot
// fully determines the rebuilt policy, so its content address is the
// policy's identity). testdata/keys.golden pins these bytes.
func (j *Job) Key() (string, bool) {
	if j.Hybrid != nil {
		return "", false
	}
	var buf [1024]byte
	b := append(buf[:0], "astro-campaign-job-v1\n"...)
	b = append(append(b, j.moduleHash()...), '\n')
	b = append(append(b, j.platformName()...), '\n')
	b = append(append(b, j.OS...), '\n')
	b = append(append(b, j.Actuator...), '\n')
	b = append(j.Config.Append(b), '\n')
	b = append(strconv.AppendInt(b, j.Seed, 10), '\n')
	b = append(appendArgs(b, j.Args), '\n')
	// Seed, Args and InitialConfig live on the Job itself; clear them in the
	// knob fingerprint so Opts copies can't disagree with the job fields
	// (Execute overwrites them the same way).
	opts := j.Opts
	opts.Seed, opts.Args, opts.InitialConfig = 0, nil, hw.Config{}
	b, err := opts.AppendFingerprint(b)
	if err != nil {
		return "", false
	}
	b = append(b, '\n')
	if j.AgentKey != "" {
		b = append(append(b, "agent:"...), j.AgentKey...)
	}
	return hexSHA256(b), true
}

// appendArgs appends each argument in decimal followed by a comma.
func appendArgs(b []byte, args []int64) []byte {
	for _, a := range args {
		b = append(strconv.AppendInt(b, a, 10), ',')
	}
	return b
}

// hexSHA256 returns the hex SHA-256 of a key's preimage. The digest and
// its hex form stay on the stack; the returned string is the one
// allocation.
func hexSHA256(preimage []byte) string {
	sum := sha256.Sum256(preimage)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}

// ValidateScheduler checks a scheduler token without building anything.
// CLIs use it to reject typos before a campaign compiles or runs; the error
// lists the valid tokens. Platform-dependent tokens ("fixed:<xLyB>") are
// only syntax-checked here — Spec.Validate still checks them against every
// target platform.
func ValidateScheduler(tok string) error {
	osName, actName, err := schedToken(tok)
	if err != nil {
		return err
	}
	if _, err := buildOS(osName); err != nil {
		return err
	}
	if strings.HasPrefix(actName, "fixed:") {
		// Syntax only: the config must parse, but whether it is valid on a
		// particular board is Spec.Validate's per-platform job.
		if _, err := hw.ParseConfig(strings.TrimPrefix(actName, "fixed:")); err != nil {
			return fmt.Errorf("campaign: scheduler %q: %w", tok, err)
		}
		return nil
	}
	if actName != "" {
		plat, err := hw.ByName(DefaultPlatform)
		if err != nil {
			return err
		}
		if _, err := buildActuator(actName, plat); err != nil {
			return err
		}
	}
	return nil
}

// buildOS resolves the OS policy name (fresh instance per run: policies may
// carry state).
func buildOS(name string) (sim.OSPolicy, error) {
	switch name {
	case "":
		return nil, nil // sim defaults to least-loaded
	case "gts":
		return sched.NewGTS(), nil
	}
	return nil, fmt.Errorf("campaign: unknown OS policy %q (have \"\", \"gts\")", name)
}

// buildActuator resolves the actuator name against a platform.
func buildActuator(name string, plat *hw.Platform) (sim.Actuator, error) {
	switch {
	case name == "":
		return nil, nil
	case name == "octopus-man":
		return sched.NewOctopusMan(plat), nil
	case strings.HasPrefix(name, "fixed:"):
		cfg, err := hw.ParseConfig(strings.TrimPrefix(name, "fixed:"))
		if err != nil {
			return nil, fmt.Errorf("campaign: actuator %q: %w", name, err)
		}
		if !cfg.Valid(plat.MaxLittle(), plat.MaxBig()) {
			// The simulator silently ignores invalid actuation requests, so
			// an unchecked config would mislabel an all-on run as "fixed:X".
			return nil, fmt.Errorf("campaign: actuator %q: config invalid on %s", name, plat.Name)
		}
		return &sched.Fixed{Config: cfg}, nil
	case strings.HasPrefix(name, "random:"):
		seed, err := strconv.ParseUint(strings.TrimPrefix(name, "random:"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("campaign: actuator %q: %w", name, err)
		}
		return &sched.Random{Plat: plat, Seed: seed}, nil
	}
	return nil, fmt.Errorf("campaign: unknown actuator %q", name)
}

// Execute runs the simulation from scratch (no cache involvement).
func (j *Job) Execute() (*sim.Result, error) {
	if j.Module == nil {
		return nil, fmt.Errorf("campaign: job %d (%s) has no module", j.Index, j.Label)
	}
	if j.Hybrid != nil {
		return nil, j.refuseHybrid()
	}
	if j.Opts.OS != nil || j.Opts.Actuator != nil || j.Opts.Hybrid != nil {
		return nil, fmt.Errorf("campaign: job %d (%s): set policies by name, not in Opts", j.Index, j.Label)
	}
	plat, err := hw.ByName(j.platformName())
	if err != nil {
		return nil, err
	}
	opts := j.Opts
	opts.Seed = j.Seed
	opts.Args = j.Args
	opts.InitialConfig = j.Config
	if opts.OS, err = buildOS(j.OS); err != nil {
		return nil, err
	}
	if opts.Actuator, err = buildActuator(j.Actuator, plat); err != nil {
		return nil, err
	}
	if j.AgentKey != "" {
		if opts.Hybrid, err = j.hybridFromAgent(plat); err != nil {
			return nil, err
		}
	}
	m, err := sim.New(j.Module, plat, opts)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// hybridFromAgent rebuilds the hybrid policy named by AgentKey: fetch the
// trained-agent snapshot from the Agents store, take the restored agent
// and its visited-state static policy from the process's memo (see
// restoreShared; a miss restores and extracts them), and wrap both in a
// HybridRuntime of the cell's own — exactly the construction the fig10
// driver performs in-process. Every input is inside the snapshot
// (inference-exact parameters plus the visited states), so the policy
// this returns is bit-identical wherever it is rebuilt; that is what lets
// agent-keyed jobs cross the wire. The cell shares the agent's weights
// and the policy read-only and owns only its inference scratch.
func (j *Job) hybridFromAgent(plat *hw.Platform) (sim.HybridPolicy, error) {
	if j.Agents == nil {
		return nil, fmt.Errorf("campaign: job %d (%s): agent-keyed hybrid needs an Agents store", j.Index, j.Label)
	}
	data, ok := j.Agents.Get(j.AgentKey)
	if !ok {
		return nil, fmt.Errorf("campaign: job %d (%s): no trained-agent snapshot under %s", j.Index, j.Label, j.AgentKey)
	}
	ra, err := restoreShared(data, j.platformName(), plat)
	if err != nil {
		return nil, fmt.Errorf("campaign: job %d (%s): snapshot %s: %w", j.Index, j.Label, j.AgentKey, err)
	}
	agent := ra.agent
	if d, ok := agent.(*rl.DQN); ok {
		agent = d.Inference() // Best and Q write the network's activations
	}
	hr := sched.NewHybridRuntime(agent, plat)
	hr.Policy = ra.policy
	return hr, nil
}
