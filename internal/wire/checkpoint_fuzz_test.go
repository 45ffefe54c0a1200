package wire

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dmra/internal/alloc"
	"dmra/internal/mec"
)

// FuzzLoadCheckpoint feeds arbitrary bytes to LoadCheckpoint and
// validates whatever decodes against a small network, checking the
// decoder's contract on untrusted input: it never panics, and a
// checkpoint it accepts matches the network in every shape and range
// (re-checked here independently of validate). The seeds are the real
// checkpoint of a finished run on the same network plus one edit of it
// per kind of mismatch, so every check is exercised even without
// -fuzz: random byte edits rarely keep the JSON well-formed.
func FuzzLoadCheckpoint(f *testing.F) {
	net_ := buildNet(f, 30, 1)
	dir := f.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if _, err := RunRegionCluster(net_, RegionConfig{DMRA: alloc.DefaultDMRAConfig(), Regions: 2, CheckpointPath: path}); err != nil {
		f.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved)
	f.Add(saved[:len(saved)/2])
	f.Add([]byte(`{"schema":1,"round":1}`))
	f.Add([]byte(`{"schema":1,"round":1,"services":-1,"remCRU":null}`))
	// A UE and a BS that is not one of its candidates.
	ue := slices.IndexFunc(net_.UEs, func(ue mec.UE) bool { return len(net_.Candidates(ue.ID)) < len(net_.BSs) })
	if ue < 0 {
		f.Fatal("every UE has every BS as a candidate")
	}
	stranger := mec.BSID(0)
	for _, l := range net_.Candidates(mec.UEID(ue)) {
		if l.BS == stranger {
			stranger++
		}
	}
	for _, edit := range []func(c *Checkpoint){
		func(c *Checkpoint) { c.Schema++ },
		func(c *Checkpoint) { c.Round = 0 },
		func(c *Checkpoint) { c.Frames = -2 },
		func(c *Checkpoint) { c.Services++ },
		func(c *Checkpoint) { c.RemCRU = c.RemCRU[1:] },
		func(c *Checkpoint) { c.RemRRB = append(c.RemRRB, 1) },
		func(c *Checkpoint) { c.ServingBS = c.ServingBS[1:] },
		func(c *Checkpoint) { c.PerBS = c.PerBS[1:] },
		func(c *Checkpoint) { c.RemCRU[3] = -1 },
		func(c *Checkpoint) { c.RemCRU[3] = net_.BSs[0].CRUCapacity[3] + 1 },
		func(c *Checkpoint) { c.RemRRB[1] = net_.BSs[1].MaxRRBs + 1 },
		func(c *Checkpoint) { c.PerBS[2].BytesReceived = -1 },
		func(c *Checkpoint) { c.ServingBS[0] = mec.BSID(len(net_.BSs)) },
		func(c *Checkpoint) { c.ServingBS[ue] = stranger },
	} {
		var c Checkpoint
		if err := json.Unmarshal(saved, &c); err != nil {
			f.Fatal(err)
		}
		edit(&c)
		data, err := json.Marshal(&c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpoint(path)
		if err != nil {
			return
		}
		if err := cp.validate(net_); err != nil {
			return
		}
		checkCheckpointFits(t, net_, cp)
	})
}

// checkCheckpointFits fails t unless cp can seed a resumed run over
// net_: the scenario's shape, residuals within [0, capacity], every
// serving BS one of the UE's candidates, and non-negative counters.
func checkCheckpointFits(t *testing.T, net_ *mec.Network, cp *Checkpoint) {
	t.Helper()
	nBS, nUE, nSvc := len(net_.BSs), len(net_.UEs), net_.Services
	if cp.Schema != CheckpointSchema || cp.Round < 1 || cp.Frames < 0 {
		t.Fatalf("accepted schema %d, round %d, frames %d", cp.Schema, cp.Round, cp.Frames)
	}
	if cp.Services != nSvc || len(cp.RemCRU) != nBS*nSvc || len(cp.RemRRB) != nBS ||
		len(cp.ServingBS) != nUE || len(cp.PerBS) != nBS {
		t.Fatalf("accepted shape: services %d, %d CRU rows, %d RRBs, %d UEs, %d traffic entries",
			cp.Services, len(cp.RemCRU), len(cp.RemRRB), len(cp.ServingBS), len(cp.PerBS))
	}
	for b, bs := range net_.BSs {
		if rrb := cp.RemRRB[b]; rrb < 0 || rrb > bs.MaxRRBs {
			t.Fatalf("accepted BS %d residual RRBs %d of %d", b, rrb, bs.MaxRRBs)
		}
		for j := 0; j < nSvc; j++ {
			if cru := cp.RemCRU[b*nSvc+j]; cru < 0 || cru > bs.CRUCapacity[j] {
				t.Fatalf("accepted BS %d service %d residual CRUs %d of %d", b, j, cru, bs.CRUCapacity[j])
			}
		}
		if tr := cp.PerBS[b]; tr.BytesSent < 0 || tr.BytesReceived < 0 {
			t.Fatalf("accepted BS %d traffic %+v", b, tr)
		}
	}
	for u, b := range cp.ServingBS {
		if b == mec.CloudBS {
			continue
		}
		candidate := false
		for _, l := range net_.Candidates(mec.UEID(u)) {
			candidate = candidate || l.BS == b
		}
		if !candidate {
			t.Fatalf("accepted UE %d served by BS %d, not a candidate", u, b)
		}
	}
}
