// Package rl implements the learning machinery of the Astro system
// (Sec. 3.2.2): a small multi-layer neural network trained by gradient
// descent, used as a Q-function approximator over states
// (configuration, program phase, hardware phase), plus a tabular Q-learner
// used as an ablation baseline. The reward is the paper's weighted
// performance-per-watt, MIPS^gamma / Watt.
package rl

import (
	"fmt"
	"math"
	"math/rand"
)

// Network is a fully connected MLP with ReLU hidden layers and a linear
// output layer.
type Network struct {
	sizes []int
	// w[l][out][in], b[l][out] for layer l connecting sizes[l] -> sizes[l+1].
	w [][][]float64
	b [][]float64

	// Scratch buffers reused across Forward/Train calls.
	acts [][]float64 // acts[0] = input copy, acts[l+1] = layer l output
	zs   [][]float64 // pre-activation values
	errs [][]float64 // backprop deltas
	grad []float64   // output-gradient scratch (training is allocation-free)
}

// NewNetwork builds a network with the given layer sizes (at least input
// and output), deterministically initialized (He initialization) from seed.
func NewNetwork(seed int64, sizes ...int) *Network {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("rl: network needs >=2 layer sizes, got %v", sizes))
	}
	rng := rand.New(rand.NewSource(seed))
	n := &Network{sizes: append([]int(nil), sizes...)}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		scale := math.Sqrt(2.0 / float64(in))
		wl := make([][]float64, out)
		for o := range wl {
			row := make([]float64, in)
			for i := range row {
				row[i] = rng.NormFloat64() * scale
			}
			wl[o] = row
		}
		n.w = append(n.w, wl)
		n.b = append(n.b, make([]float64, out))
	}
	n.allocScratch(true)
	return n
}

// allocScratch gives n buffers of its own for what Forward writes and, if
// train, for what backprop writes.
func (n *Network) allocScratch(train bool) {
	sizes := n.sizes
	n.acts = make([][]float64, len(sizes))
	n.zs = make([][]float64, len(sizes)-1)
	if train {
		n.errs = make([][]float64, len(sizes)-1)
		n.grad = make([]float64, sizes[len(sizes)-1])
	}
	for i, s := range sizes {
		n.acts[i] = make([]float64, s)
		if i > 0 {
			n.zs[i-1] = make([]float64, s)
			if train {
				n.errs[i-1] = make([]float64, s)
			}
		}
	}
}

// inference returns a network over n's weights and biases, which it only
// reads, with activations of its own and no training scratch: TrainAction
// and TrainVector on it panic before any parameter changes.
func (n *Network) inference() *Network {
	c := &Network{sizes: n.sizes, w: n.w, b: n.b}
	c.allocScratch(false)
	return c
}

// NumInputs returns the input dimension.
func (n *Network) NumInputs() int { return n.sizes[0] }

// NumOutputs returns the output dimension.
func (n *Network) NumOutputs() int { return n.sizes[len(n.sizes)-1] }

// Forward runs inference; the returned slice is owned by the network and
// valid until the next call.
func (n *Network) Forward(x []float64) []float64 {
	if len(x) != n.sizes[0] {
		panic(fmt.Sprintf("rl: input size %d, want %d", len(x), n.sizes[0]))
	}
	copy(n.acts[0], x)
	last := len(n.w) - 1
	for l := 0; l < len(n.w); l++ {
		in := n.acts[l]
		for o := range n.w[l] {
			row := n.w[l][o]
			z := n.b[l][o]
			for i, v := range in {
				z += row[i] * v
			}
			n.zs[l][o] = z
			if l == last {
				n.acts[l+1][o] = z // linear output
			} else if z > 0 {
				n.acts[l+1][o] = z // ReLU
			} else {
				n.acts[l+1][o] = 0
			}
		}
	}
	return n.acts[len(n.acts)-1]
}

// TrainAction performs one SGD step pushing output[action] toward target
// (squared loss on that single output, as in TD learning); other outputs
// are untouched. Returns the pre-update squared error.
func (n *Network) TrainAction(x []float64, action int, target, lr float64) float64 {
	out := n.Forward(x)
	diff := out[action] - target
	grad := n.grad
	for i := range grad {
		grad[i] = 0
	}
	grad[action] = diff
	n.backprop(grad, lr)
	return diff * diff
}

// TrainVector performs one SGD step toward a full target vector (mean
// squared loss). Returns the pre-update loss.
func (n *Network) TrainVector(x, target []float64, lr float64) float64 {
	out := n.Forward(x)
	if len(target) != len(out) {
		panic("rl: target size mismatch")
	}
	grad := n.grad
	var loss float64
	for i := range out {
		d := out[i] - target[i]
		grad[i] = d
		loss += d * d
	}
	n.backprop(grad, lr)
	return loss / float64(len(out))
}

// backprop propagates the output-layer gradient (dLoss/dOutput) and applies
// an SGD update with learning rate lr. Must be called right after Forward
// (it reuses the stored activations).
func (n *Network) backprop(outGrad []float64, lr float64) {
	last := len(n.w) - 1
	copy(n.errs[last], outGrad) // linear output layer: delta = grad
	for l := last - 1; l >= 0; l-- {
		next := n.errs[l+1]
		for o := range n.errs[l] {
			if n.zs[l][o] <= 0 { // ReLU derivative
				n.errs[l][o] = 0
				continue
			}
			var s float64
			for k := range next {
				s += next[k] * n.w[l+1][k][o]
			}
			n.errs[l][o] = s
		}
	}
	for l := range n.w {
		in := n.acts[l]
		for o, d := range n.errs[l] {
			if d == 0 {
				continue
			}
			row := n.w[l][o]
			step := lr * d
			for i, v := range in {
				row[i] -= step * v
			}
			n.b[l][o] -= step
		}
	}
}

// Weights exposes a deep copy of the parameters (for tests and snapshots).
func (n *Network) Weights() ([][][]float64, [][]float64) {
	w := make([][][]float64, len(n.w))
	for l := range n.w {
		w[l] = make([][]float64, len(n.w[l]))
		for o := range n.w[l] {
			w[l][o] = append([]float64(nil), n.w[l][o]...)
		}
	}
	b := make([][]float64, len(n.b))
	for l := range n.b {
		b[l] = append([]float64(nil), n.b[l]...)
	}
	return w, b
}

// SetWeights installs parameters (shape must match).
func (n *Network) SetWeights(w [][][]float64, b [][]float64) error {
	if len(w) != len(n.w) || len(b) != len(n.b) {
		return fmt.Errorf("rl: weight shape mismatch")
	}
	for l := range w {
		if len(w[l]) != len(n.w[l]) || len(b[l]) != len(n.b[l]) {
			return fmt.Errorf("rl: layer %d shape mismatch", l)
		}
		for o := range w[l] {
			if len(w[l][o]) != len(n.w[l][o]) {
				return fmt.Errorf("rl: layer %d row %d shape mismatch", l, o)
			}
			copy(n.w[l][o], w[l][o])
		}
		copy(n.b[l], b[l])
	}
	return nil
}
