package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"
)

// artifactVersion guards the on-disk format.
const artifactVersion = 1

// Artifact is the on-disk replay record of one campaign run. It carries
// the concrete expanded event script — not the generators — so replaying
// needs no generator machinery and survives generator changes; the
// recorded trace hash and violations let the replayer verify the run
// reproduced bit-for-bit.
type Artifact struct {
	Version    int          `json:"version"`
	Name       string       `json:"name,omitempty"`
	Topo       string       `json:"topo"`
	Seed       uint64       `json:"seed"`
	DurationNS int64        `json:"duration_ns"`
	Events     []Event      `json:"events"`
	TraceHash  string       `json:"trace_hash"`
	Violations []Violation  `json:"violations,omitempty"`
	Trace      []TraceEntry `json:"trace,omitempty"`
}

// NewArtifact captures a report as a replayable artifact.
func NewArtifact(r *Report) Artifact {
	return Artifact{
		Version:    artifactVersion,
		Name:       r.Campaign.Name,
		Topo:       r.Campaign.Topo,
		Seed:       r.Campaign.Seed,
		DurationNS: int64(r.Campaign.Duration),
		Events:     r.Events,
		TraceHash:  fmt.Sprintf("%016x", r.TraceHash),
		Violations: r.Violations,
		Trace:      r.Trace,
	}
}

// Campaign rebuilds the runnable campaign: the recorded concrete script,
// no generators.
func (a Artifact) Campaign() Campaign {
	return Campaign{
		Name:     a.Name,
		Topo:     a.Topo,
		Seed:     a.Seed,
		Duration: time.Duration(a.DurationNS),
		Script:   append([]Event(nil), a.Events...),
	}
}

// WriteArtifact saves a report's replay artifact as JSON.
func WriteArtifact(path string, r *Report) error {
	a := NewArtifact(r)
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("chaos: marshal artifact: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("chaos: write artifact: %w", err)
	}
	return nil
}

// LoadArtifact reads a replay artifact.
func LoadArtifact(path string) (Artifact, error) {
	var a Artifact
	data, err := os.ReadFile(path)
	if err != nil {
		return a, fmt.Errorf("chaos: read artifact: %w", err)
	}
	if err := json.Unmarshal(data, &a); err != nil {
		return a, fmt.Errorf("chaos: parse artifact: %w", err)
	}
	if a.Version != artifactVersion {
		return a, fmt.Errorf("chaos: artifact version %d, want %d", a.Version, artifactVersion)
	}
	return a, nil
}

// Replay re-runs an artifact's recorded script and reports whether the
// run reproduced the original bit-for-bit: identical trace hash and
// identical invariant verdicts.
func Replay(a Artifact) (r *Report, match bool, err error) {
	r, err = Run(a.Campaign())
	if err != nil {
		return nil, false, err
	}
	match = fmt.Sprintf("%016x", r.TraceHash) == a.TraceHash &&
		slices.Equal(r.Violations, a.Violations)
	return r, match, nil
}
