package rl

import (
	"fmt"
	"math"
	"math/rand"

	"astro/internal/features"
	"astro/internal/perfmon"
)

// State is the Q-learning state of Definition 3.2: hardware configuration,
// static program phase and dynamic hardware phase.
type State struct {
	ConfigID  int // dense configuration id (hw.Platform.ConfigID)
	ProgPhase int // features.Phase
	HWPhaseID int // perfmon.HWPhase.ID()
}

// EncodeDim returns the input dimension of the network encoding for a
// platform with nConfigs configurations.
func EncodeDim(nConfigs int) int {
	return nConfigs + features.NumPhases + 12 // 4 counters x 3 buckets
}

// Encode produces the network input: one-hot configuration, one-hot program
// phase, and one-hot buckets of the four hardware counters.
func Encode(s State, nConfigs int, dst []float64) []float64 {
	dim := EncodeDim(nConfigs)
	if cap(dst) < dim {
		dst = make([]float64, dim)
	}
	dst = dst[:dim]
	for i := range dst {
		dst[i] = 0
	}
	if s.ConfigID >= 0 && s.ConfigID < nConfigs {
		dst[s.ConfigID] = 1
	}
	if s.ProgPhase >= 0 && s.ProgPhase < features.NumPhases {
		dst[nConfigs+s.ProgPhase] = 1
	}
	h := perfmon.FromID(s.HWPhaseID)
	base := nConfigs + features.NumPhases
	dst[base+h.IPCBucket] = 1
	dst[base+3+h.CMABucket] = 1
	dst[base+6+h.CMIBucket] = 1
	dst[base+9+h.CPUBucket] = 1
	return dst
}

// Reward is the paper's metric MIPS^gamma / Watt (Definition 3.7 and the
// discussion that follows): gamma=1 optimizes energy, gamma=2 maximizes the
// inverse energy-delay product, emphasizing performance.
func Reward(mips, watts, gamma float64) float64 {
	if watts <= 0 || mips < 0 {
		return 0
	}
	return math.Pow(mips, gamma) / watts
}

// ScaleReward compresses rewards to a range the learners handle well
// (MIPS²/W spans many orders of magnitude): log1p then a constant divisor.
// Prefer Normalizer for online learning — log compression flattens the
// differences between good and mediocre configurations.
func ScaleReward(r float64) float64 {
	if r < 0 {
		r = 0
	}
	return math.Log1p(r) / 10
}

// Normalizer rescales raw rewards into [0, 1] against a slowly decaying
// running maximum, preserving the ratios between configurations (a config
// with half the reward really looks half as good to the learner).
type Normalizer struct {
	max float64
}

// Scale normalizes r and updates the running maximum.
func (n *Normalizer) Scale(r float64) float64 {
	if r < 0 {
		r = 0
	}
	n.max *= 0.999 // slow decay tracks non-stationary reward magnitudes
	if r > n.max {
		n.max = r
	}
	if n.max <= 0 {
		return 0
	}
	return r / n.max
}

// Agent is a Q-learning policy over States with NumActions() actions
// (one per hardware configuration).
type Agent interface {
	Name() string
	NumActions() int
	// Select picks an action, exploring when explore is true.
	Select(s State, explore bool) int
	// Best returns the greedy action.
	Best(s State) int
	// Q returns the current value estimate for (s, action).
	Q(s State, action int) float64
	// Observe records a transition: acting with action in prev yielded
	// reward (already scaled) and led to next.
	Observe(prev State, action int, reward float64, next State)
	// EndEpisode signals the end of a training run (decays exploration).
	EndEpisode()
}

// DQNConfig parameterizes the neural Q-learner.
type DQNConfig struct {
	Hidden   int     // hidden layer width (default 48)
	LR       float64 // SGD learning rate (default 0.03)
	Discount float64 // TD discount (default 0.6)
	Eps0     float64 // initial exploration rate (default 0.5)
	EpsMin   float64 // exploration floor (default 0.03)
	EpsDecay float64 // per-episode decay (default 0.9)
	Seed     int64
	// Replay controls experience replay: each Observe also trains on
	// Replay transitions sampled from a ring buffer, which makes the
	// learner usable with the few hundred checkpoints a training run
	// yields. 0 uses the default of 6; negative disables replay.
	Replay int
}

func (c *DQNConfig) setDefaults() {
	if c.Hidden == 0 {
		c.Hidden = 48
	}
	if c.LR == 0 {
		c.LR = 0.03
	}
	if c.Discount == 0 {
		c.Discount = 0.6
	}
	if c.Eps0 == 0 {
		c.Eps0 = 0.5
	}
	if c.EpsMin == 0 {
		c.EpsMin = 0.03
	}
	if c.EpsDecay == 0 {
		c.EpsDecay = 0.9
	}
	if c.Replay == 0 {
		c.Replay = 6
	}
}

// transition is one stored experience for replay.
type transition struct {
	prev   State
	action int
	reward float64
	next   State
}

// DQN is the paper's neural-network Q-learner: states in, one Q-value per
// configuration out, trained online by TD(0) gradient descent with a small
// experience-replay buffer.
type DQN struct {
	cfg      DQNConfig
	nActions int
	nConfigs int
	net      *Network
	eps      float64
	rng      *rand.Rand
	scratch  []float64

	buf    []transition
	bufCap int
	bufPos int
}

// NewDQN builds the neural agent for a platform with nConfigs
// configurations (actions select the next configuration).
func NewDQN(nConfigs int, cfg DQNConfig) *DQN {
	cfg.setDefaults()
	return newDQN(nConfigs, cfg, NewNetwork(cfg.Seed, EncodeDim(nConfigs), cfg.Hidden, nConfigs))
}

// newDQN wraps net, sized for nConfigs, in an agent whose cfg already has
// its defaults.
func newDQN(nConfigs int, cfg DQNConfig, net *Network) *DQN {
	return &DQN{
		cfg:      cfg,
		nActions: nConfigs,
		nConfigs: nConfigs,
		net:      net,
		eps:      cfg.Eps0,
		rng:      rand.New(rand.NewSource(cfg.Seed + 1)),
		bufCap:   4096,
	}
}

// Inference returns a handle that answers Best and Q from d's weights. It
// shares the weights, which it only reads, and owns its input scratch and
// activations, so several goroutines may each consult their own handle on
// one agent as long as d no longer learns. A handle cannot learn: Observe
// panics, and it has no exploration RNG, so Select must not explore.
func (d *DQN) Inference() *DQN {
	return &DQN{cfg: d.cfg, nActions: d.nActions, nConfigs: d.nConfigs, net: d.net.inference(), eps: d.eps}
}

// Name implements Agent.
func (d *DQN) Name() string { return "dqn" }

// NumActions implements Agent.
func (d *DQN) NumActions() int { return d.nActions }

// Epsilon returns the current exploration rate.
func (d *DQN) Epsilon() float64 { return d.eps }

// Select implements Agent.
func (d *DQN) Select(s State, explore bool) int {
	if explore && d.rng.Float64() < d.eps {
		return d.rng.Intn(d.nActions)
	}
	return d.Best(s)
}

// Best implements Agent.
func (d *DQN) Best(s State) int {
	d.scratch = Encode(s, d.nConfigs, d.scratch)
	q := d.net.Forward(d.scratch)
	best := 0
	for a := 1; a < len(q); a++ {
		if q[a] > q[best] {
			best = a
		}
	}
	return best
}

// Q implements Agent.
func (d *DQN) Q(s State, action int) float64 {
	d.scratch = Encode(s, d.nConfigs, d.scratch)
	return d.net.Forward(d.scratch)[action]
}

// Observe implements Agent: one TD(0) SGD step on the new transition plus
// replayed steps on past experience.
func (d *DQN) Observe(prev State, action int, reward float64, next State) {
	if d.net.errs == nil {
		panic("rl: Observe on an inference-only DQN handle")
	}
	if action < 0 || action >= d.nActions {
		panic(fmt.Sprintf("rl: action %d out of range", action))
	}
	d.step(transition{prev, action, reward, next})
	tr := transition{prev, action, reward, next}
	if len(d.buf) < d.bufCap {
		d.buf = append(d.buf, tr)
	} else {
		d.buf[d.bufPos] = tr
		d.bufPos = (d.bufPos + 1) % d.bufCap
	}
	for i := 0; i < d.cfg.Replay && len(d.buf) > 1; i++ {
		d.step(d.buf[d.rng.Intn(len(d.buf))])
	}
}

func (d *DQN) step(tr transition) {
	d.scratch = Encode(tr.next, d.nConfigs, d.scratch)
	q := d.net.Forward(d.scratch)
	maxQ := q[0]
	for _, v := range q[1:] {
		if v > maxQ {
			maxQ = v
		}
	}
	target := tr.reward + d.cfg.Discount*maxQ
	d.scratch = Encode(tr.prev, d.nConfigs, d.scratch)
	d.net.TrainAction(d.scratch, tr.action, target, d.cfg.LR)
}

// EndEpisode implements Agent.
func (d *DQN) EndEpisode() {
	d.eps *= d.cfg.EpsDecay
	if d.eps < d.cfg.EpsMin {
		d.eps = d.cfg.EpsMin
	}
}

// Tabular is a classic table-based Q-learner over the discrete state space
// (|configs| x 4 program phases x 81 hardware phases). It serves as the
// ablation counterpart to the paper's neural learner.
type Tabular struct {
	nActions int
	nConfigs int
	alpha    float64
	discount float64
	eps      float64
	epsMin   float64
	epsDecay float64
	q        []float64
	rng      *rand.Rand
	seed     int64
}

// NewTabular builds the table-based agent.
func NewTabular(nConfigs int, seed int64) *Tabular {
	nStates := nConfigs * features.NumPhases * perfmon.NumPhases
	return &Tabular{
		nActions: nConfigs,
		nConfigs: nConfigs,
		seed:     seed,
		alpha:    0.3,
		discount: 0.6,
		eps:      0.5,
		epsMin:   0.03,
		epsDecay: 0.9,
		q:        make([]float64, nStates*nConfigs),
		rng:      rand.New(rand.NewSource(seed + 2)),
	}
}

// SetParams overrides the learning hyper-parameters. Zero values keep the
// current setting.
func (t *Tabular) SetParams(alpha, discount, eps0, epsMin, epsDecay float64) {
	if alpha != 0 {
		t.alpha = alpha
	}
	if discount != 0 {
		t.discount = discount
	}
	if eps0 != 0 {
		t.eps = eps0
	}
	if epsMin != 0 {
		t.epsMin = epsMin
	}
	if epsDecay != 0 {
		t.epsDecay = epsDecay
	}
}

func (t *Tabular) stateIndex(s State) int {
	c := s.ConfigID
	if c < 0 || c >= t.nConfigs {
		c = 0
	}
	p := s.ProgPhase
	if p < 0 || p >= features.NumPhases {
		p = 0
	}
	h := s.HWPhaseID
	if h < 0 || h >= perfmon.NumPhases {
		h = 0
	}
	return (c*features.NumPhases+p)*perfmon.NumPhases + h
}

// Name implements Agent.
func (t *Tabular) Name() string { return "tabular" }

// NumActions implements Agent.
func (t *Tabular) NumActions() int { return t.nActions }

// Select implements Agent.
func (t *Tabular) Select(s State, explore bool) int {
	if explore && t.rng.Float64() < t.eps {
		return t.rng.Intn(t.nActions)
	}
	return t.Best(s)
}

// Best implements Agent.
func (t *Tabular) Best(s State) int {
	base := t.stateIndex(s) * t.nActions
	best := 0
	for a := 1; a < t.nActions; a++ {
		if t.q[base+a] > t.q[base+best] {
			best = a
		}
	}
	return best
}

// Q implements Agent.
func (t *Tabular) Q(s State, action int) float64 {
	return t.q[t.stateIndex(s)*t.nActions+action]
}

// Observe implements Agent: classic Q-learning update.
func (t *Tabular) Observe(prev State, action int, reward float64, next State) {
	nb := t.stateIndex(next) * t.nActions
	maxQ := t.q[nb]
	for a := 1; a < t.nActions; a++ {
		if t.q[nb+a] > maxQ {
			maxQ = t.q[nb+a]
		}
	}
	i := t.stateIndex(prev)*t.nActions + action
	t.q[i] += t.alpha * (reward + t.discount*maxQ - t.q[i])
}

// EndEpisode implements Agent.
func (t *Tabular) EndEpisode() {
	t.eps *= t.epsDecay
	if t.eps < t.epsMin {
		t.eps = t.epsMin
	}
}
