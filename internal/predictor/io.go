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

// Model persistence: a trained model is only usable with the exact feature
// scaler, column list and bucket configuration it was trained with, so one
// snapshot bundles them all. The scaler always covers every Table II
// feature; Cols (nil for all) names the network's inputs among them.

type classifierSnapshot struct {
	Cols    []int
	MaxMs   int // the network's outputs, less one
	LogCols []bool
	Mean    []float64
	Std     []float64
	// Net holds the gob-encoded network (nested, because gob decoders
	// buffer reads and cannot share a stream with a second decoder).
	Net []byte
}

// save writes the model (network + scaler + columns) to w.
func (m *model) save(w io.Writer) error {
	var nb bytes.Buffer
	if err := m.net.Save(&nb); err != nil {
		return err
	}
	snap := classifierSnapshot{
		Cols:    m.cols,
		MaxMs:   m.net.OutDim() - 1,
		LogCols: m.scaler.LogCols,
		Mean:    m.scaler.Mean,
		Std:     m.scaler.Std,
		Net:     nb.Bytes(),
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("predictor: save: %w", err)
	}
	return nil
}

// loadModel reads a model written by save.
func loadModel(r io.Reader) (*model, error) {
	var snap classifierSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("predictor: load: %w", err)
	}
	net, err := nn.Load(bytes.NewReader(snap.Net))
	if err != nil {
		return nil, err
	}
	if err := snap.check(net); err != nil {
		return nil, err
	}
	scaler := &nn.Scaler{LogCols: snap.LogCols, Mean: snap.Mean, Std: snap.Std}
	return &model{net: net, scaler: scaler, cols: snap.Cols}, nil
}

// check rejects a snapshot whose parts do not fit each other: the scaler
// must hold one finite mean and one finite, positive std per Table II
// feature, every column must name a distinct feature, the network must take
// one input per column (every feature when Cols is nil) and have MaxMs+1
// outputs. Prediction indexes all of them without checks, so a mismatch
// would panic on the first query or silently zero-pad it.
func (snap *classifierSnapshot) check(net *nn.Network) error {
	wantIn := search.NumFeatures
	if snap.Cols != nil {
		wantIn = len(snap.Cols)
	}
	if net.InDim() != wantIn {
		return fmt.Errorf("predictor: network input %d does not match %d features", net.InDim(), wantIn)
	}
	if net.OutDim() != snap.MaxMs+1 {
		return fmt.Errorf("predictor: network output %d does not match %d buckets", net.OutDim(), snap.MaxMs+1)
	}
	if len(snap.Mean) != search.NumFeatures || len(snap.Std) != search.NumFeatures {
		return fmt.Errorf("predictor: scaler has %d means and %d stds for %d features", len(snap.Mean), len(snap.Std), search.NumFeatures)
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

// Save writes the classifier to w.
func (c *NNClassifier) Save(w io.Writer) error { return c.save(w) }

// LoadClassifier reads a classifier written by Save.
func LoadClassifier(r io.Reader) (*NNClassifier, error) {
	m, err := loadModel(r)
	if err != nil {
		return nil, err
	}
	return &NNClassifier{m}, nil
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

// Save writes the error predictor to w.
func (e *NNError) Save(w io.Writer) error { return e.save(w) }

// LoadError reads an error predictor written by (*NNError).Save.
func LoadError(r io.Reader) (*NNError, error) {
	m, err := loadModel(r)
	if err != nil {
		return nil, err
	}
	if m.net.OutDim() != 2*errRangeMs+1 {
		return nil, fmt.Errorf("predictor: network output %d does not match error buckets", m.net.OutDim())
	}
	return &NNError{m}, nil
}
