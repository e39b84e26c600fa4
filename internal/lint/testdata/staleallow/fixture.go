// Package fixture exercises the suite-level //gemini:allow audit: an allow
// that suppresses nothing is stale, and an allow naming an unknown check or
// missing its reason is malformed. Consumed allows stay silent.
package fixture

// grow carries a live hotpath suppression: the make really fires, so the
// allow is consumed and the audit stays quiet about it.
//
//gemini:hotpath
func grow(n int) []float64 {
	//gemini:allow hotpath -- sized once by the caller, reused across requests
	return make([]float64, n)
}

// scale's allow is stale: nothing on the next line triggers hotpath.
//
//gemini:hotpath
func scale(v float64) float64 {
	//gemini:allow hotpath -- obsolete after the buffer moved to the caller // want "stale //gemini:allow hotpath: the hotpath analyzer reports nothing here"
	return v * 2
}

// mystery names a check no analyzer owns.
func mystery(v float64) float64 {
	//gemini:allow fastmath -- rounding is fine here // want "names unknown check .fastmath."
	return v * 3
}

// unreasoned suppresses a real diagnostic but never says why.
//
//gemini:hotpath
func unreasoned(n int) []int {
	//gemini:allow hotpath // want "has no `-- reason`"
	return make([]int, n)
}
