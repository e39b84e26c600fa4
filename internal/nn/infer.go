package nn

// Concurrent inference. Infer is the one forward pass outside training: the
// caller owns all mutable state in an Arena, and the network's weights are
// only read, so any number of goroutines can run Infer on one trained
// Network concurrently — each with its own Arena.

// Arena holds the forward-pass scratch for one network shape: two ping-pong
// activation buffers sized to the widest layer, the list of every input of
// the first layer and a list of the inputs of the one above that the forward
// kernel visits (Dense.affine). An Arena must not be shared between
// goroutines; create one per worker with Network.NewArena (they are cheap —
// four slices — and reusable across any number of Infer calls).
type Arena struct {
	ping, pong  []float64
	rows, dense []int
}

// NewArena allocates inference scratch sized for this network.
func (n *Network) NewArena() *Arena {
	w := 0
	for _, l := range n.Layers {
		w = max(w, l.Out)
	}
	return &Arena{ping: make([]float64, w), pong: make([]float64, w), rows: make([]int, w), dense: denseRows(n.InDim())}
}

// Infer runs the forward pass writing only into the caller's arena; it is
// safe to call concurrently on one Network from many goroutines as long as
// each uses its own Arena and no Fit runs concurrently. The returned slice
// is owned by the arena and valid until its next Infer. The first layer,
// fed scaled features, visits every input; each layer above visits only the
// non-zero outputs of the one below where its guard allows (Dense.affine,
// Dense.activate).
func (n *Network) Infer(x []float64, a *Arena) []float64 {
	cur, rows := x, a.dense[:n.InDim()]
	buf, spare := a.ping, a.pong
	for j, l := range n.Layers {
		out := buf[:l.Out]
		l.affine(l.wt, cur, out, rows)
		above, skip := []int(nil), false
		if j+1 < len(n.Layers) {
			above, skip = a.rows, n.Layers[j+1].sparse
		}
		rows = l.activate(out, above, skip)
		cur = out
		buf, spare = spare, buf
	}
	return cur
}
