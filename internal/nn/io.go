package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// snapshot is the gob-serializable form of a network (scratch buffers are
// rebuilt on load).
type snapshot struct {
	Layers []layerSnapshot
}

type layerSnapshot struct {
	In, Out int
	Act     Activation
	W, B    []float64
}

// Save writes the network's architecture and weights to w.
func (n *Network) Save(w io.Writer) error {
	var s snapshot
	for _, l := range n.Layers {
		s.Layers = append(s.Layers, layerSnapshot{In: l.In, Out: l.Out, Act: l.Act, W: l.W, B: l.B})
	}
	return gob.NewEncoder(w).Encode(s)
}

// Load reads a network previously written by Save.
func Load(r io.Reader) (*Network, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	if len(s.Layers) == 0 {
		return nil, fmt.Errorf("nn: load: empty network")
	}
	net := &Network{}
	for i, ls := range s.Layers {
		if ls.In <= 0 || ls.Out <= 0 || len(ls.W) != ls.In*ls.Out || len(ls.B) != ls.Out {
			return nil, fmt.Errorf("nn: load: inconsistent layer shape %dx%d", ls.In, ls.Out)
		}
		if ls.Act != Identity && ls.Act != ReLU {
			return nil, fmt.Errorf("nn: load: layer %d has unknown activation %d", i, ls.Act)
		}
		// The forward pass reads only as many weights per row as its input
		// is wide: a wider layer would run and silently ignore the rest of
		// each row.
		if i > 0 && ls.In != s.Layers[i-1].Out {
			return nil, fmt.Errorf("nn: load: layer %d takes %d inputs after a %d-wide layer", i, ls.In, s.Layers[i-1].Out)
		}
		net.Layers = append(net.Layers, newLayer(ls.In, ls.Out, ls.Act, ls.W, ls.B))
	}
	return net, nil
}
