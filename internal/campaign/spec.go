package campaign

import (
	"fmt"
	"strings"

	"astro/internal/hw"
	"astro/internal/ir"
	"astro/internal/sim"
	"astro/internal/workloads"
)

// Spec is the declarative campaign description: a cross-product grid that
// Expand turns into one Job per cell. It is the JSON body of
// POST /campaigns on astro-serve and the -campaign input of the CLIs.
type Spec struct {
	Name string `json:"name,omitempty"`

	// Benchmarks are workloads.Expand patterns: names, suites ("parsec",
	// "rodinia", "micro"), "all", or prefix globs ("hotspot*"). Required.
	Benchmarks []string `json:"benchmarks"`

	// Platforms are hw platform names; default ["odroid-xu4"].
	Platforms []string `json:"platforms,omitempty"`

	// Schedulers name scheduling policies; default ["default"]. Tokens:
	// "default" (least-loaded OS, no actuation), "gts" (ARM's Global Task
	// Scheduling), "octopus-man" (threshold ladder actuator),
	// "fixed:<xLyB>" (pinned actuator), "random:<seed>".
	Schedulers []string `json:"schedulers,omitempty"`

	// Configs are initial hardware configurations: "<xLyB>", "all-on"
	// (default), or "all" to sweep every valid configuration of the
	// platform.
	Configs []string `json:"configs,omitempty"`

	// Seeds for the simulator RNG; default [0].
	Seeds []int64 `json:"seeds,omitempty"`

	// Scale selects benchmark arguments and simulator knob defaults:
	// "small" (default) or "paper".
	Scale string `json:"scale,omitempty"`

	// Sim overrides individual simulator knobs (zero = scale default).
	Sim Knobs `json:"sim,omitempty"`
}

// Knobs are the spec-settable scalar simulator options.
type Knobs struct {
	QuantumS    float64 `json:"quantum_s,omitempty"`
	TickS       float64 `json:"tick_s,omitempty"`
	CheckpointS float64 `json:"checkpoint_s,omitempty"`
	SampleS     float64 `json:"sample_s,omitempty"`
	MaxTimeS    float64 `json:"max_time_s,omitempty"`
}

func (s *Spec) scale() (string, error) {
	switch s.Scale {
	case "", "small":
		return "small", nil
	case "paper":
		return "paper", nil
	}
	return "", fmt.Errorf("campaign: scale must be \"small\" or \"paper\", got %q", s.Scale)
}

// baseOptions mirrors the experiment harness defaults for each scale so
// declarative campaigns and figure drivers agree on the time axis.
func (s *Spec) baseOptions(scale string) sim.Options {
	var o sim.Options
	if scale == "paper" {
		o.CheckpointS, o.QuantumS, o.TickS = 1e-3, 100e-6, 500e-6
	} else {
		o.CheckpointS, o.QuantumS, o.TickS = 400e-6, 50e-6, 200e-6
	}
	if s.Sim.QuantumS > 0 {
		o.QuantumS = s.Sim.QuantumS
	}
	if s.Sim.TickS > 0 {
		o.TickS = s.Sim.TickS
	}
	if s.Sim.CheckpointS > 0 {
		o.CheckpointS = s.Sim.CheckpointS
	}
	if s.Sim.SampleS > 0 {
		o.SampleS = s.Sim.SampleS
	}
	if s.Sim.MaxTimeS > 0 {
		o.MaxTimeS = s.Sim.MaxTimeS
	}
	return o
}

// schedToken maps a scheduler token to (OS, actuator) names.
func schedToken(tok string) (osName, actName string, err error) {
	switch {
	case tok == "default" || tok == "":
		return "", "", nil
	case tok == "gts":
		return "gts", "", nil
	case tok == "octopus-man":
		return "", "octopus-man", nil
	case strings.HasPrefix(tok, "fixed:") || strings.HasPrefix(tok, "random:"):
		return "", tok, nil
	}
	return "", "", fmt.Errorf("campaign: unknown scheduler %q (have default, gts, octopus-man, fixed:<xLyB>, random:<seed>)", tok)
}

// Validate checks the spec without compiling anything.
func (s *Spec) Validate() error {
	if len(s.Benchmarks) == 0 {
		return fmt.Errorf("campaign: spec needs at least one benchmark pattern")
	}
	if _, err := s.scale(); err != nil {
		return err
	}
	if _, err := workloads.Expand(s.Benchmarks); err != nil {
		return err
	}
	plats, err := s.resolvePlatforms()
	if err != nil {
		return err
	}
	for _, tok := range s.schedulers() {
		osName, actName, err := schedToken(tok)
		if err != nil {
			return err
		}
		if _, err := buildOS(osName); err != nil {
			return err
		}
		// Actuators are validated against every target platform: a
		// "fixed:<cfg>" config can be legal on one board and not another.
		for _, plat := range plats {
			if _, err := buildActuator(actName, plat); err != nil {
				return err
			}
		}
	}
	for _, c := range s.configs() {
		if c == "all" || c == "all-on" {
			continue
		}
		cfg, err := hw.ParseConfig(c)
		if err != nil {
			return err
		}
		for i, plat := range plats {
			if !cfg.Valid(plat.MaxLittle(), plat.MaxBig()) {
				return fmt.Errorf("campaign: config %v invalid on %s", cfg, s.platforms()[i])
			}
		}
	}
	return nil
}

// resolvePlatforms builds each named platform once, in spec order.
func (s *Spec) resolvePlatforms() ([]*hw.Platform, error) {
	names := s.platforms()
	plats := make([]*hw.Platform, len(names))
	for i, name := range names {
		plat, err := hw.ByName(name)
		if err != nil {
			return nil, err
		}
		plats[i] = plat
	}
	return plats, nil
}

func (s *Spec) platforms() []string {
	if len(s.Platforms) == 0 {
		return []string{DefaultPlatform}
	}
	return s.Platforms
}

func (s *Spec) schedulers() []string {
	if len(s.Schedulers) == 0 {
		return []string{"default"}
	}
	return s.Schedulers
}

func (s *Spec) configs() []string {
	if len(s.Configs) == 0 {
		return []string{"all-on"}
	}
	return s.Configs
}

func (s *Spec) seeds() []int64 {
	if len(s.Seeds) == 0 {
		return []int64{0}
	}
	return s.Seeds
}

// Expand compiles each benchmark once and materializes the cross-product
// grid as jobs, in deterministic order: benchmark-major, then platform,
// scheduler, configuration, seed.
func (s *Spec) Expand() ([]*Job, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	scale, _ := s.scale()
	specs, err := workloads.Expand(s.Benchmarks)
	if err != nil {
		return nil, err
	}
	base := s.baseOptions(scale)

	type compiled struct {
		mod  *ir.Module
		hash string
		args []int64
	}
	mods := make([]compiled, len(specs))
	for i, ws := range specs {
		mod, err := ws.Compile()
		if err != nil {
			return nil, err
		}
		args := ws.SmallArgs()
		if scale == "paper" {
			args = ws.Args()
		}
		// Hash once per module, not once per grid cell.
		mods[i] = compiled{mod: mod, hash: ModuleHash(mod), args: args}
	}

	// Each platform is built once for the whole grid, after the compile
	// loop so a compile error still comes first.
	plats, err := s.resolvePlatforms()
	if err != nil {
		return nil, err
	}
	platCfgs := make([][]hw.Config, len(plats))
	for p, plat := range plats {
		for _, c := range s.configs() {
			switch c {
			case "all":
				platCfgs[p] = append(platCfgs[p], plat.Configs()...)
			case "all-on":
				platCfgs[p] = append(platCfgs[p], hw.Config{}) // zero = all cores on
			default:
				cfg, err := hw.ParseConfig(c)
				if err != nil {
					return nil, err
				}
				if !cfg.Valid(plat.MaxLittle(), plat.MaxBig()) {
					return nil, fmt.Errorf("campaign: config %v invalid on %s", cfg, s.platforms()[p])
				}
				platCfgs[p] = append(platCfgs[p], cfg)
			}
		}
	}

	var jobs []*Job
	for i, ws := range specs {
		for p, platName := range s.platforms() {
			cfgs := platCfgs[p]
			for _, tok := range s.schedulers() {
				osName, actName, err := schedToken(tok)
				if err != nil {
					return nil, err
				}
				for _, cfg := range cfgs {
					for _, seed := range s.seeds() {
						cfgLabel := "all-on"
						if cfg.Cores() > 0 {
							cfgLabel = cfg.String()
						}
						jobs = append(jobs, &Job{
							Index:     len(jobs),
							Label:     fmt.Sprintf("%s/%s/%s/%s/seed%d", ws.Name, platName, tok, cfgLabel, seed),
							Benchmark: ws.Name,
							Module:    mods[i].mod,
							PlatName:  platName,
							OS:        osName,
							Actuator:  actName,
							Config:    cfg,
							Seed:      seed,
							Args:      mods[i].args,
							Opts:      base,
							modHash:   mods[i].hash,
						})
					}
				}
			}
		}
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("campaign: spec expands to zero jobs")
	}
	return jobs, nil
}
