package nn

// Concurrent inference support. Dense.Forward retains per-layer scratch
// (pre-activations, input copies) for a later Backward call, which makes one
// Network unusable from two goroutines at once. Infer is the allocation-free
// reentrant alternative: the caller owns all mutable state in an Arena, and
// the network's weights are only read, so any number of goroutines can run
// Infer on one trained Network concurrently — each with its own Arena.
//
// Infer and Forward share one multiply-accumulate kernel (affineRows), so the
// two paths produce bit-identical float64 outputs.

// Arena holds the forward-pass scratch for one network shape: two ping-pong
// activation buffers sized to the widest layer. An Arena must not be shared
// between goroutines; create one per worker with Network.NewArena (they are
// cheap — two slices — and reusable across any number of Infer calls).
type Arena struct {
	ping, pong []float64
}

// NewArena allocates inference scratch sized for this network.
func (n *Network) NewArena() *Arena {
	w := 0
	for _, l := range n.Layers {
		if l.Out > w {
			w = l.Out
		}
	}
	return &Arena{ping: make([]float64, w), pong: make([]float64, w)}
}

// Infer runs the forward pass writing only into the caller's arena; it is
// safe to call concurrently on one Network from many goroutines as long as
// each uses its own Arena and no Forward/Backward/Fit runs concurrently.
// The returned slice is owned by the arena and valid until its next Infer.
func (n *Network) Infer(x []float64, a *Arena) []float64 {
	cur := x
	buf, spare := a.ping, a.pong
	for _, l := range n.Layers {
		out := buf[:l.Out]
		l.applyInto(cur, out)
		cur = out
		buf, spare = spare, buf
	}
	return cur
}

// applyInto computes out = act(W·x + b) without touching the layer's
// training scratch, through the kernel Forward uses.
//
//gemini:hotpath
func (d *Dense) applyInto(x, out []float64) {
	affineRows(d.W, d.B, d.In, x, out)
	if d.Act == ReLU {
		clampNegative(out)
	}
}
