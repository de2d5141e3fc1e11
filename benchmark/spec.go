package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// spec is BENCHMARK.json: the one place that names the workloads and the
// metrics with their units and regression bounds. The program reports against
// it and refuses to finish a workload that leaves a listed metric out.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the current directory, which is the
// repository root under `go run ./benchmark`, or from its parent, which is
// the root when the package's tests run.
func loadSpec() (*spec, error) {
	blob, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		blob, err = os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	}
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *spec) why(workload string) string {
	for _, w := range s.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

// pick returns the listed metrics out of values, failing on a listed metric
// that was not measured.
func pick(list []metricSpec, values map[string]float64) (map[string]float64, error) {
	out := make(map[string]float64, len(list))
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is listed in BENCHMARK.json but was not measured", m.Name)
		}
		out[m.Name] = v
	}
	return out, nil
}
