package search

// Result is one scored document.
type Result struct {
	Doc   int32
	Score float32
}

// topKHeap is a fixed-capacity min-heap over scores: the root is the K-th
// best score seen so far, i.e. the pruning threshold θ of MaxScore.
// Implemented by hand (rather than container/heap) to keep the per-insert
// cost accounting explicit. items never grows past k (see heapOver).
type topKHeap struct {
	k      int
	items  []Result
	pushes int // heap insertions (cost-model counter)
}

func newTopKHeap(k int) *topKHeap {
	h := heapOver(nil, max(k, 1))
	return &h
}

// heapOver returns an empty heap of capacity k whose items live in store, or
// in a slice of their own when store is too small for k. The kernels pass a
// stack array of stackK entries, which a search at DefaultK never outgrows.
//
//gemini:hotpath
func heapOver(store []Result, k int) topKHeap {
	if k > cap(store) {
		//gemini:allow hotpath -- a K beyond the caller's array is the caller's choice; DefaultK fits stackK
		store = make([]Result, 0, k)
	}
	return topKHeap{k: k, items: store[:0]}
}

// threshold returns the current K-th best score, or 0 if fewer than K
// documents have been collected (nothing can be pruned yet).
func (h *topKHeap) threshold() float32 {
	if len(h.items) < h.k {
		return 0
	}
	return h.items[0].Score
}

func (h *topKHeap) full() bool { return len(h.items) >= h.k }

// offer inserts the result if it beats the current threshold, returning
// whether it was admitted.
//
//gemini:hotpath
func (h *topKHeap) offer(r Result) bool {
	if len(h.items) < h.k {
		h.push(r)
		return true
	}
	if r.Score <= h.items[0].Score {
		return false
	}
	h.replaceMin(r)
	return true
}

// push adds r to a heap that is not yet full. It reslices within the
// capacity every constructor gives items (>= k) where append would do the
// same work: append makes escape analysis move a caller's stack array to the
// heap.
//
//gemini:hotpath
func (h *topKHeap) push(r Result) {
	n := len(h.items)
	h.items = h.items[:n+1]
	h.items[n] = r
	h.siftUp(n)
	h.pushes++
}

// replaceMin evicts the root of a full heap for r; the caller has checked
// that r beats it.
//
//gemini:hotpath
func (h *topKHeap) replaceMin(r Result) {
	h.items[0] = r
	h.siftDown(0)
	h.pushes++
}

//gemini:hotpath
func (h *topKHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].Score <= h.items[i].Score {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

//gemini:hotpath
func (h *topKHeap) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.items[l].Score < h.items[smallest].Score {
			smallest = l
		}
		if r < n && h.items[r].Score < h.items[smallest].Score {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

// results returns the collected documents sorted by descending score (ties
// broken by ascending document ID for determinism).
//
//gemini:hotpath
func (h *topKHeap) results() []Result {
	//gemini:allow hotpath -- the returned top-K outlives the search: the one allocation a query keeps
	out := make([]Result, len(h.items))
	copy(out, h.items)
	// Simple insertion-style sort is fine for K ≤ a few hundred.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			// In order when a scores strictly higher, or ties (not lower,
			// not higher) with the lower doc id first.
			inOrder := a.Score > b.Score
			if !inOrder && a.Score >= b.Score && a.Doc <= b.Doc {
				inOrder = true
			}
			if inOrder {
				break
			}
			out[j-1], out[j] = b, a
		}
	}
	return out
}
