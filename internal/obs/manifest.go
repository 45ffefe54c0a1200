package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// ManifestSchemaVersion is the trace-format version stamped into every
// manifest. Bump it whenever the event vocabulary or the manifest fields
// change incompatibly; tools refuse to diff traces across versions.
const ManifestSchemaVersion = 1

// Manifest is the run-identity header written as the first line of a
// JSONL trace. It captures everything a tool needs to decide whether two
// traces are comparable (schema version, config hash, seed, algorithm)
// and to rebuild the network the trace ran over (the raw scenario JSON).
//
// The obs package stays dependency-free: Scenario is carried as opaque
// JSON and interpreted by the tools (internal/workload knows how to parse
// and rebuild it).
type Manifest struct {
	// SchemaVersion is ManifestSchemaVersion at write time.
	SchemaVersion int `json:"schemaVersion"`
	// Tool names the producing binary (e.g. "dmra-sim").
	Tool string `json:"tool,omitempty"`
	// Algorithm is the runtime that produced the events: "dmra",
	// "protocol", "wire", "online", ...
	Algorithm string `json:"algorithm"`
	// Seed is the scenario build seed; with Scenario it pins the network.
	Seed uint64 `json:"seed"`
	// Rho is the Eq. 17 congestion weight the run used.
	Rho float64 `json:"rho"`
	// Shards is the wire runtime's effective region-coordinator count (0
	// when not applicable). Excluded from the config hash: diffing a run
	// across region counts is exactly what the parity guarantee promises.
	Shards int `json:"shards,omitempty"`
	// Scenario is the raw workload.Config JSON used to build the network,
	// when the producer had it. Tools rebuild the network from it.
	Scenario json.RawMessage `json:"scenario,omitempty"`
	// ConfigHash fingerprints the identity fields (see ComputeHash).
	ConfigHash string `json:"configHash"`
}

// ComputeHash returns the hex SHA-256 over the manifest's identity
// fields: schema version, algorithm, seed, rho and the scenario JSON.
// Shards and Tool are deliberately excluded — runs that differ only in
// coordinator count or producing binary are still comparable.
func (m *Manifest) ComputeHash() string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d|alg=%s|seed=%d|rho=%g|", m.SchemaVersion, m.Algorithm, m.Seed, m.Rho)
	h.Write(m.Scenario)
	return hex.EncodeToString(h.Sum(nil))
}

// Seal fills SchemaVersion and ConfigHash; call it once the identity
// fields are set, before writing the manifest.
func (m *Manifest) Seal() {
	m.SchemaVersion = ManifestSchemaVersion
	m.ConfigHash = m.ComputeHash()
}

// CompatibleWith reports whether traces produced under m and other can be
// meaningfully diffed: same schema version, same algorithm-independent
// config hash. A nil receiver or argument means "no manifest" and is
// never compatible.
func (m *Manifest) CompatibleWith(other *Manifest) error {
	if m == nil || other == nil {
		return fmt.Errorf("obs: trace has no run manifest")
	}
	if m.SchemaVersion != other.SchemaVersion {
		return fmt.Errorf("obs: manifest schema version mismatch: %d vs %d",
			m.SchemaVersion, other.SchemaVersion)
	}
	if m.ConfigHash != other.ConfigHash {
		return fmt.Errorf("obs: manifest config hash mismatch: %.12s vs %.12s (different scenario, seed, rho or algorithm)",
			m.ConfigHash, other.ConfigHash)
	}
	return nil
}

// manifestLine is the JSONL envelope distinguishing the header record
// from event records: {"manifest":{...}} on the first line of the file.
type manifestLine struct {
	Manifest *Manifest `json:"manifest"`
}

// WriteManifest writes the run manifest as the trace's first line. It
// must be called before any event is emitted; calling it later (or
// twice) returns an error and writes nothing. The manifest is sealed
// (schema version + config hash) if the caller has not done so. No-op
// on a nil sink.
func (s *Sink) WriteManifest(m Manifest) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seq > 0 {
		return fmt.Errorf("obs: manifest must precede all events (%d already emitted)", s.seq)
	}
	if s.manifest != nil {
		return fmt.Errorf("obs: manifest already written")
	}
	if m.ConfigHash == "" {
		m.Seal()
	}
	s.manifest = &m
	if s.w == nil || s.err != nil {
		return s.err
	}
	data, err := json.Marshal(manifestLine{Manifest: &m})
	if err == nil {
		data = append(data, '\n')
		_, err = s.w.Write(data)
	}
	s.err = err
	return err
}

// Manifest returns the manifest written to this sink, or nil.
func (s *Sink) Manifest() *Manifest {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.manifest
}
