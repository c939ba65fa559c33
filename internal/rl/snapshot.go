package rl

import (
	"encoding/json"
	"fmt"

	"astro/internal/features"
	"astro/internal/perfmon"
)

// Snapshot is a serializable capture of a trained agent, exact for
// inference: a restored agent returns bit-identical Best and Q answers for
// every state, because the parameters round-trip losslessly (encoding/json
// emits float64 with the shortest representation that parses back to the
// same value). That is the property the trained-agent cache needs — policy
// extraction and hybrid-runtime decisions are pure functions of Best/Q.
//
// Continued *training* from a snapshot is supported but not bit-identical
// to continuing the original: the exploration RNG restarts from the
// configured seed and the DQN replay ring restarts empty. Callers that
// memoize trained agents must treat training as finished at snapshot time
// (the campaign trained-agent cache keys include the full training recipe,
// so a cached agent is only ever reused for inference).
type Snapshot struct {
	Kind     string  `json:"kind"` // "dqn" | "tabular"
	NConfigs int     `json:"n_configs"`
	Eps      float64 `json:"eps"` // exploration rate at capture time

	// DQN state.
	Config  *DQNConfig    `json:"dqn_config,omitempty"`
	Weights [][][]float64 `json:"w,omitempty"`
	Biases  [][]float64   `json:"b,omitempty"`

	// Tabular state.
	Q        []float64 `json:"q,omitempty"`
	Alpha    float64   `json:"alpha,omitempty"`
	Discount float64   `json:"discount,omitempty"`
	EpsMin   float64   `json:"eps_min,omitempty"`
	EpsDecay float64   `json:"eps_decay,omitempty"`
	Seed     int64     `json:"seed,omitempty"` // tabular RNG seed
}

// Snapshot captures the DQN's learned parameters and hyper-parameters.
func (d *DQN) Snapshot() *Snapshot {
	cfg := d.cfg
	w, b := d.net.Weights()
	return &Snapshot{
		Kind:     "dqn",
		NConfigs: d.nConfigs,
		Eps:      d.eps,
		Config:   &cfg,
		Weights:  w,
		Biases:   b,
	}
}

// Snapshot captures the tabular learner's Q-table and hyper-parameters.
func (t *Tabular) Snapshot() *Snapshot {
	return &Snapshot{
		Kind:     "tabular",
		NConfigs: t.nConfigs,
		Eps:      t.eps,
		Q:        append([]float64(nil), t.q...),
		Alpha:    t.alpha,
		Discount: t.discount,
		EpsMin:   t.epsMin,
		EpsDecay: t.epsDecay,
		Seed:     t.seed,
	}
}

// Restore reconstructs the captured agent. Snapshot bytes can arrive
// from outside the process (a worker's training result), so every size
// the agent would allocate is checked against the decoded parameters
// first: a refused snapshot allocates nothing. A restored DQN takes the
// snapshot's weight and bias slices as its own rather than copying them,
// so once the agent learns, s no longer holds what it captured.
func (s *Snapshot) Restore() (Agent, error) {
	if s.NConfigs < 1 {
		return nil, fmt.Errorf("rl: snapshot has %d configurations, want at least 1", s.NConfigs)
	}
	switch s.Kind {
	case "dqn":
		if s.Config == nil {
			return nil, fmt.Errorf("rl: dqn snapshot missing config")
		}
		cfg := *s.Config
		cfg.setDefaults()
		if err := checkDQNShape(s.NConfigs, cfg.Hidden, s.Weights, s.Biases); err != nil {
			return nil, fmt.Errorf("rl: restore dqn: %w", err)
		}
		net := &Network{sizes: []int{EncodeDim(s.NConfigs), cfg.Hidden, s.NConfigs}, w: s.Weights, b: s.Biases}
		net.allocScratch(true)
		d := newDQN(s.NConfigs, cfg, net)
		d.eps = s.Eps
		return d, nil
	case "tabular":
		// len(q) must be NConfigs² × the phase count; dividing, rather
		// than multiplying NConfigs out, cannot overflow.
		n, per := len(s.Q), features.NumPhases*perfmon.NumPhases
		if n%s.NConfigs != 0 || n/s.NConfigs%per != 0 || n/s.NConfigs/per != s.NConfigs {
			return nil, fmt.Errorf("rl: restore tabular: q size %d does not fit %d configurations", n, s.NConfigs)
		}
		t := NewTabular(s.NConfigs, s.Seed)
		copy(t.q, s.Q)
		t.eps = s.Eps
		if s.Alpha != 0 {
			t.alpha = s.Alpha
		}
		if s.Discount != 0 {
			t.discount = s.Discount
		}
		if s.EpsMin != 0 {
			t.epsMin = s.EpsMin
		}
		if s.EpsDecay != 0 {
			t.epsDecay = s.EpsDecay
		}
		return t, nil
	}
	return nil, fmt.Errorf("rl: unknown snapshot kind %q", s.Kind)
}

// checkDQNShape reports whether w and b are the layers of a network
// sized [EncodeDim(nConfigs), hidden, nConfigs]. Each size is compared
// with a decoded length before it is used, so none can overflow.
func checkDQNShape(nConfigs, hidden int, w [][][]float64, b [][]float64) error {
	if hidden < 0 || len(w) != 2 || len(b) != 2 ||
		len(w[0]) != hidden || len(b[0]) != hidden || len(w[1]) != nConfigs || len(b[1]) != nConfigs {
		return fmt.Errorf("rl: network shape does not fit %d configurations and %d hidden units", nConfigs, hidden)
	}
	in := EncodeDim(nConfigs)
	for l, width := range []int{in, hidden} {
		for o, row := range w[l] {
			if len(row) != width {
				return fmt.Errorf("rl: layer %d row %d has %d weights, want %d", l, o, len(row), width)
			}
		}
	}
	return nil
}

// Encode serializes the snapshot.
func (s *Snapshot) Encode() ([]byte, error) {
	return json.Marshal(s)
}

// DecodeSnapshot parses an encoded snapshot.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("rl: decode snapshot: %w", err)
	}
	return &s, nil
}
