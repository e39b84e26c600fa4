package predictor

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"gemini/internal/nn"
	"gemini/internal/search"
)

// Model persistence: a trained classifier (or error predictor) is only
// usable with the exact feature scaler and bucket configuration it was
// trained with, so Save/Load bundle all three.

type classifierSnapshot struct {
	Cols    []int
	MaxMs   int
	LogCols []bool
	Mean    []float64
	Std     []float64
	// Net holds the gob-encoded network (nested, because gob decoders
	// buffer reads and cannot share a stream with a second decoder).
	Net []byte
}

// Save writes the classifier (network + scaler + configuration) to w.
func (c *NNClassifier) Save(w io.Writer) error {
	var nb bytes.Buffer
	if err := c.net.Save(&nb); err != nil {
		return err
	}
	snap := classifierSnapshot{
		Cols:    c.cols,
		MaxMs:   c.maxMs,
		LogCols: c.scaler.LogCols,
		Mean:    c.scaler.Mean,
		Std:     c.scaler.Std,
		Net:     nb.Bytes(),
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("predictor: save: %w", err)
	}
	return nil
}

// LoadClassifier reads a classifier written by Save.
func LoadClassifier(r io.Reader) (*NNClassifier, error) {
	var snap classifierSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("predictor: load: %w", err)
	}
	net, err := nn.Load(bytes.NewReader(snap.Net))
	if err != nil {
		return nil, err
	}
	wantIn := search.NumFeatures
	if snap.Cols != nil {
		wantIn = len(snap.Cols)
	}
	if err := snap.check(net, wantIn); err != nil {
		return nil, err
	}
	if net.OutDim() != snap.MaxMs+1 {
		return nil, fmt.Errorf("predictor: network output %d does not match %d buckets", net.OutDim(), snap.MaxMs+1)
	}
	scaler := &nn.Scaler{LogCols: snap.LogCols, Mean: snap.Mean, Std: snap.Std}
	return &NNClassifier{net: net, scaler: scaler, cols: snap.Cols, maxMs: snap.MaxMs}, nil
}

// check rejects a snapshot whose parts do not fit each other: the network
// must take wantIn features, the scaler must hold one finite mean and one
// finite, positive std per network input, and every column must name a
// distinct Table II feature. Prediction indexes all of them without checks,
// so a mismatch would panic on the first query or silently zero-pad it.
func (snap *classifierSnapshot) check(net *nn.Network, wantIn int) error {
	if net.InDim() != wantIn {
		return fmt.Errorf("predictor: network input %d does not match %d features", net.InDim(), wantIn)
	}
	if len(snap.Mean) != net.InDim() || len(snap.Std) != net.InDim() {
		return fmt.Errorf("predictor: scaler has %d means and %d stds for %d inputs", len(snap.Mean), len(snap.Std), net.InDim())
	}
	for j := range snap.Std {
		if math.IsNaN(snap.Mean[j]) || math.IsInf(snap.Mean[j], 0) {
			return fmt.Errorf("predictor: scaler mean %d is %v", j, snap.Mean[j])
		}
		if !(snap.Std[j] > 0) || math.IsInf(snap.Std[j], 1) {
			return fmt.Errorf("predictor: scaler std %d is %v, not finite and positive", j, snap.Std[j])
		}
	}
	var seen [search.NumFeatures]bool
	for _, c := range snap.Cols {
		if c < 0 || c >= search.NumFeatures || seen[c] {
			return fmt.Errorf("predictor: feature column %d out of range or repeated", c)
		}
		seen[c] = true
	}
	return nil
}

// LoadClassifierFile reads a classifier from a file path.
func LoadClassifierFile(path string) (*NNClassifier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadClassifier(f)
}

// Save writes the error predictor (network + scaler) to w.
func (e *NNError) Save(w io.Writer) error {
	var nb bytes.Buffer
	if err := e.net.Save(&nb); err != nil {
		return err
	}
	snap := classifierSnapshot{
		MaxMs:   2 * errRangeMs,
		LogCols: e.scaler.LogCols,
		Mean:    e.scaler.Mean,
		Std:     e.scaler.Std,
		Net:     nb.Bytes(),
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("predictor: save: %w", err)
	}
	return nil
}

// LoadError reads an error predictor written by (*NNError).Save.
func LoadError(r io.Reader) (*NNError, error) {
	var snap classifierSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("predictor: load: %w", err)
	}
	net, err := nn.Load(bytes.NewReader(snap.Net))
	if err != nil {
		return nil, err
	}
	if err := snap.check(net, search.NumFeatures); err != nil {
		return nil, err
	}
	if net.OutDim() != 2*errRangeMs+1 {
		return nil, fmt.Errorf("predictor: network output %d does not match error buckets", net.OutDim())
	}
	scaler := &nn.Scaler{LogCols: snap.LogCols, Mean: snap.Mean, Std: snap.Std}
	return &NNError{net: net, scaler: scaler}, nil
}
