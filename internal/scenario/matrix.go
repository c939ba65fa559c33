package scenario

import (
	"fmt"
	"math/rand"

	"astro/internal/campaign"
	"astro/internal/hw"
	"astro/internal/workloads"
)

// Matrix is the declarative scenario description: generated programs ×
// platforms (explicit and zoo-generated) × schedulers × simulator seeds. It
// is the JSON body of POST /scenarios on astro-serve and the -spec input of
// `astro scenario`. A matrix compiles down to campaign.Spec batches, so the
// whole campaign machinery (worker pool, content-addressed cache, engine
// lifecycle) applies unchanged.
type Matrix struct {
	Name string `json:"name,omitempty"`

	// Programs to synthesize, by explicit parameters.
	Programs []ProgramParams `json:"programs,omitempty"`
	// ProgramCount generates this many additional programs with seeds
	// ProgramSeed, ProgramSeed+1, ... cycling through a fixed spread of
	// phase-mix presets (CPU-heavy, IO-heavy, blocked, balanced,
	// lock-contended).
	ProgramCount int   `json:"program_count,omitempty"`
	ProgramSeed  int64 `json:"program_seed,omitempty"`

	// Platforms are explicit names (built-in boards or canonical zoo
	// names); Zoo appends a generated family. At least one of the two must
	// yield a platform; an entirely empty platform axis defaults to
	// campaign.DefaultPlatform.
	Platforms []string   `json:"platforms,omitempty"`
	Zoo       *ZooParams `json:"zoo,omitempty"`

	// Schedulers, Configs, Seeds, Scale and Sim carry the campaign.Spec
	// semantics (and defaults) unchanged.
	Schedulers []string       `json:"schedulers,omitempty"`
	Configs    []string       `json:"configs,omitempty"`
	Seeds      []int64        `json:"seeds,omitempty"`
	Scale      string         `json:"scale,omitempty"`
	Sim        campaign.Knobs `json:"sim,omitempty"`

	// Batch bounds the programs per emitted campaign.Spec (0 = all in
	// one). Large matrices batch so astro-serve campaigns stay individually
	// observable and cancellable.
	Batch int `json:"batch,omitempty"`
}

// programPresets is the deterministic spread ProgramCount cycles through.
// Index i also modulates loop depth and trip count so no two presets in a
// row synthesize structurally identical programs.
var programPresets = []ProgramParams{
	{CPU: 4, IO: 1, Blocked: 0, Mixed: 1},                            // compute-heavy
	{CPU: 1, IO: 4, Blocked: 1, Mixed: 0},                            // io-heavy
	{CPU: 1, IO: 1, Blocked: 3, Mixed: 1, Mutexes: 2},                // blocked/waiting
	{CPU: 2, IO: 2, Blocked: 2, Mixed: 2, Barrier: true},             // balanced, barrier-stepped
	{CPU: 2, IO: 1, Blocked: 2, Mixed: 1, Mutexes: 4, Barrier: true}, // lock-contended
}

// programParams resolves the full program list (explicit + preset-cycled).
func (m *Matrix) programParams() []ProgramParams {
	out := append([]ProgramParams(nil), m.Programs...)
	for i := 0; i < m.ProgramCount; i++ {
		pp := programPresets[i%len(programPresets)]
		pp.Seed = m.ProgramSeed + int64(i)
		pp.LoopDepth = 1 + i%3
		pp.Trip = 8 << (i % 3)
		out = append(out, pp)
	}
	return out
}

// Materialize synthesizes every program and registers it with the workloads
// registry (idempotently: re-materializing a matrix that names already-
// registered programs is fine as long as the sources agree). It returns the
// program names and the full platform axis in deterministic order.
func (m *Matrix) Materialize() (programs []string, platforms []string, err error) {
	pps := m.programParams()
	if len(pps) == 0 {
		return nil, nil, fmt.Errorf("scenario: matrix needs at least one program (programs or program_count)")
	}
	seen := map[string]bool{}
	rng := rand.New(rand.NewSource(0)) // generate reseeds it per program
	for _, pp := range pps {
		spec, err := generate(pp, rng)
		if err != nil {
			return nil, nil, err
		}
		if seen[spec.Name] {
			continue
		}
		seen[spec.Name] = true
		if err := ensureRegistered(spec); err != nil {
			return nil, nil, err
		}
		programs = append(programs, spec.Name)
	}

	platforms = append(platforms, m.Platforms...)
	if m.Zoo != nil {
		zoo, err := m.Zoo.Platforms()
		if err != nil {
			return nil, nil, err
		}
		platforms = append(platforms, zoo...)
	}
	pseen := map[string]bool{}
	uniq := platforms[:0]
	for _, p := range platforms {
		if !pseen[p] {
			pseen[p] = true
			uniq = append(uniq, p)
		}
	}
	return programs, uniq, nil
}

// ensureRegistered registers a generated spec, treating an exact duplicate
// (same name, same source) as success. Name collisions with different
// sources are impossible for generator output (names encode the parameters)
// but are still guarded against.
func ensureRegistered(s workloads.Spec) error {
	err := workloads.Register(s)
	if err == nil {
		return nil
	}
	if ex, ok := workloads.ByName(s.Name); ok && ex.Source == s.Source && ex.Suite == s.Suite {
		return nil
	}
	return err
}

// Unregister removes the matrix's generated programs from the workloads
// registry (e.g. after a one-shot CLI sweep). Safe to call whether or not
// Materialize ran.
func (m *Matrix) Unregister() {
	for _, pp := range m.programParams() {
		workloads.Unregister(pp.Name())
	}
}

// Campaigns compiles the matrix into campaign specs: programs are batched
// (Batch per spec; one spec when Batch is 0) and every other axis carries
// over verbatim. Each spec validates against the campaign engine's own
// rules before being returned.
func (m *Matrix) Campaigns() ([]campaign.Spec, error) {
	programs, platforms, err := m.Materialize()
	if err != nil {
		return nil, err
	}
	batch := m.Batch
	if batch <= 0 || batch > len(programs) {
		batch = len(programs)
	}
	name := m.Name
	if name == "" {
		name = "scenario"
	}
	var specs []campaign.Spec
	for lo := 0; lo < len(programs); lo += batch {
		hi := lo + batch
		if hi > len(programs) {
			hi = len(programs)
		}
		sp := campaign.Spec{
			Name:       fmt.Sprintf("%s/batch%d", name, len(specs)),
			Benchmarks: append([]string(nil), programs[lo:hi]...),
			Platforms:  append([]string(nil), platforms...),
			Schedulers: append([]string(nil), m.Schedulers...),
			Configs:    append([]string(nil), m.Configs...),
			Seeds:      append([]int64(nil), m.Seeds...),
			Scale:      m.Scale,
			Sim:        m.Sim,
		}
		if len(specs) == 0 && hi == len(programs) {
			sp.Name = name // single batch keeps the bare name
		}
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

// Cells returns the grid size the matrix expands to (jobs across all
// batches), without compiling any program. Duplicate programs and
// platforms are deduplicated exactly as Materialize deduplicates them
// (program names encode their parameters, so name identity is program
// identity).
func (m *Matrix) Cells() int {
	pnames := map[string]bool{}
	for _, pp := range m.programParams() {
		pnames[pp.Name()] = true
	}
	programs := len(pnames)
	plats := map[string]bool{}
	for _, p := range m.Platforms {
		plats[p] = true
	}
	if m.Zoo != nil {
		if zoo, err := m.Zoo.Platforms(); err == nil {
			for _, p := range zoo {
				plats[p] = true
			}
		}
	}
	if len(plats) == 0 {
		plats[campaign.DefaultPlatform] = true
	}
	scheds := len(m.Schedulers)
	if scheds == 0 {
		scheds = 1
	}
	seeds := len(m.Seeds)
	if seeds == 0 {
		seeds = 1
	}
	// The config axis expands per platform: "all" sweeps every valid
	// configuration of that board, any other token is one cell.
	platformConfigs := 0
	for p := range plats {
		configs := 0
		for _, c := range m.Configs {
			if c == "all" {
				if plat, err := hw.ByName(p); err == nil {
					configs += plat.NumConfigs()
				}
			} else {
				configs++
			}
		}
		if len(m.Configs) == 0 {
			configs = 1
		}
		platformConfigs += configs
	}
	return programs * scheds * seeds * platformConfigs
}
