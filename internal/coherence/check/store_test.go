package check

import (
	"bytes"
	"fmt"
	"testing"

	"wbsim/internal/coherence"
)

// TestStoreDigestCollision forces two different fingerprints under one
// digest: they must become two entries of one chain, and a re-insert of
// either must find its own entry (and update only its own discoverer).
func TestStoreDigestCollision(t *testing.T) {
	s := newStateStore()
	const dig = 42
	a, b := []byte("state a"), []byte("state b")
	ea, created, _ := s.insertDigest(dig, a, 3, 0, coherence.Choice{}, nil)
	if !created {
		t.Fatal("first fingerprint under the digest was not created")
	}
	eb, created, _ := s.insertDigest(dig, b, 3, 1, coherence.Choice{}, nil)
	if !created || eb == ea {
		t.Fatalf("colliding fingerprint: created=%v, same entry=%v; want a second entry", created, eb == ea)
	}
	if got, created, _ := s.insertDigest(dig, a, 1, 5, coherence.Choice{}, nil); got != ea || created {
		t.Fatalf("re-insert of %q: got its own entry=%v, created=%v", a, got == ea, created)
	}
	if got, created, _ := s.insertDigest(dig, b, 4, 0, coherence.Choice{}, nil); got != eb || created {
		t.Fatalf("re-insert of %q: got its own entry=%v, created=%v", b, got == eb, created)
	}
	if ea.parent != 1 || ea.pos != 5 || eb.parent != 3 || eb.pos != 1 {
		t.Errorf("discoverers: %q (%d,%d), %q (%d,%d); want (1,5) and (3,1)",
			ea.fp, ea.parent, ea.pos, eb.fp, eb.parent, eb.pos)
	}
	a[0], b[0] = 'X', 'X' // the store interned copies, not the caller's bytes
	if string(ea.fp) != "state a" || string(eb.fp) != "state b" {
		t.Errorf("interned fingerprints %q, %q; want copies of the inserted bytes", ea.fp, eb.fp)
	}
	if news := s.drain(nil); len(news) != 2 {
		t.Errorf("drain returned %d new entries; want 2", len(news))
	}
}

// TestStoreKeepsMinimalDiscovererModel: an entry keeps the model of its
// minimal (parent, pos) discoverer, whatever order the discoverers
// arrive in, and every insert hands back the one model that lost — the
// caller's own when it is not smaller, the displaced one when it is —
// so the caller can recycle it. Once the barrier has admitted the entry
// (id set), later discoveries change nothing.
func TestStoreKeepsMinimalDiscovererModel(t *testing.T) {
	cfg := coherence.ModelConfig{Cores: 1, Banks: 1, Lines: 1, OpsPerCore: 2, Mode: coherence.ModeSquash}
	first, smaller, larger, late := coherence.NewModel(cfg), coherence.NewModel(cfg), coherence.NewModel(cfg), coherence.NewModel(cfg)
	s := newStateStore()
	fp := []byte("state")
	e, created, spare := s.insert(fp, 5, 2, coherence.Choice{}, first)
	if !created || spare != nil || e.model != first {
		t.Fatalf("first insert: created=%v spare=%v kept first=%v; want a new entry keeping its model", created, spare != nil, e.model == first)
	}
	if e.term || e.dead {
		t.Errorf("the initial state computed as term=%v dead=%v; want neither", e.term, e.dead)
	}
	if _, created, spare := s.insert(fp, 5, 1, coherence.Choice{}, smaller); created || spare != first || e.model != smaller {
		t.Fatalf("smaller discoverer: created=%v, got the displaced model back=%v, kept its own=%v", created, spare == first, e.model == smaller)
	}
	if _, created, spare := s.insert(fp, 6, 0, coherence.Choice{}, larger); created || spare != larger || e.model != smaller {
		t.Fatalf("larger discoverer: created=%v, got its own model back=%v, entry kept the smaller one=%v", created, spare == larger, e.model == smaller)
	}
	if e.parent != 5 || e.pos != 1 {
		t.Errorf("discoverer (%d,%d); want (5,1)", e.parent, e.pos)
	}
	e.id = 0 // admitted
	if _, _, spare := s.insert(fp, 0, 0, coherence.Choice{}, late); spare != late || e.model != smaller || e.parent != 5 {
		t.Errorf("a discovery after admission moved the entry: got its model back=%v, model kept=%v, parent %d",
			spare == late, e.model == smaller, e.parent)
	}
}

// TestStoreArenaBlocks interns more fingerprint bytes than one arena
// block holds, including one larger than a block, and checks that every
// interned fingerprint keeps its bytes when later blocks are started.
func TestStoreArenaBlocks(t *testing.T) {
	s := newStateStore()
	var fps [][]byte
	var es []*entry
	for i := 0; i < 3*arenaBlock/100; i++ {
		fp := []byte(fmt.Sprintf("%099d", i))
		if i == 7 {
			fp = bytes.Repeat([]byte{'x'}, arenaBlock+1)
		}
		e, created, _ := s.insert(fp, 0, int32(i), coherence.Choice{}, nil)
		if !created {
			t.Fatalf("fingerprint %d was not created", i)
		}
		fps, es = append(fps, fp), append(es, e)
	}
	for i, e := range es {
		if !bytes.Equal(e.fp, fps[i]) {
			t.Fatalf("fingerprint %d changed after later inserts", i)
		}
	}
}

// TestFingerprintFootprint pins the bytes the store interns per state,
// the part of the checker's per-state memory that the fingerprint
// encoding sets. Over the 2-core/1-bank/2-line squash closure, raw and
// symmetry-reduced, the mean fingerprint must stay within 120 bytes
// (the binary encoding averages 108.4 bytes; the decimal text it
// replaced averaged 210).
func TestFingerprintFootprint(t *testing.T) {
	mcfg := coherence.ModelConfig{Cores: 2, Banks: 1, Lines: 2, OpsPerCore: 2, Mode: coherence.ModeSquash}
	for _, sym := range []bool{false, true} {
		res := Explore(Config{Model: mcfg, Symmetry: sym, CollectStates: true})
		if !res.Exhaustive || len(res.StateSet) != res.States {
			t.Fatalf("sym=%v: exhaustive=%v, %d fingerprints for %d states", sym, res.Exhaustive, len(res.StateSet), res.States)
		}
		total := 0
		for _, fp := range res.StateSet {
			total += len(fp)
		}
		mean := float64(total) / float64(len(res.StateSet))
		t.Logf("sym=%v: %d states, mean fingerprint %.1f bytes", sym, res.States, mean)
		if mean > 120 {
			t.Errorf("sym=%v: mean fingerprint %.1f bytes per state; budget 120", sym, mean)
		}
	}
}
