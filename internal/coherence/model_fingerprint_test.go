package coherence

import (
	"math"
	"slices"
	"strings"
	"testing"

	"wbsim/internal/network"
	"wbsim/internal/sim"
)

// fpCfg is the geometry the hand-built fingerprint states live in:
// three cores, so a sharer list can name cores 1 and 2.
var fpCfg = ModelConfig{Cores: 3, Banks: 1, Lines: 2, OpsPerCore: 2, Mode: ModeSquash}

// craftDirLine installs a directory entry for the model's second line
// in bank 0, holding data word 7, and returns it for the caller to edit.
func craftDirLine(m *Model) *dirLine {
	line := m.lines[1]
	dl := &dirLine{line: line, kind: dirShared}
	dl.data.Set(line.Base(), 7)
	m.bs[0].bank.lines[line] = dl
	return dl
}

// craftMsg returns a GetS for the model's second line from core src.
func craftMsg(m *Model, src int) *Msg {
	return &Msg{Type: MsgGetS, Line: m.lines[1], Src: network.Endpoint(src), Requester: network.Endpoint(src)}
}

// inFlight wraps a message bound for dst as an in-flight network entry.
func inFlight(dst network.Endpoint, pm *Msg) *flight {
	f := &flight{env: network.Message{Dst: dst}, msg: *pm}
	f.env.Payload = &f.msg
	f.refs.Store(1)
	return f
}

// TestFingerprintSelfDelimiting builds states that differ only where a
// binary serialization could run one field or section into the next: an
// int equal to a tag byte, ints around the one-byte escape, sharer
// lists, pending queues and event multisets of different lengths (the
// shorter one's keys a prefix of the longer's), and a pair of directory
// entries whose fields would read alike if the sharer list carried no
// count. Every one must fingerprint differently from every other, under
// Fingerprint and under the identity mapping, and building the same
// state twice — with multisets filled in either order — must give equal
// fingerprints.
func TestFingerprintSelfDelimiting(t *testing.T) {
	fetch := func(m *Model, li int) deferred {
		return deferred{kind: dfBankFetchDone, line: m.lines[li]}
	}
	schedule := func(q *sim.Queue[deferred], evs ...deferred) {
		for _, ev := range evs {
			q.At(0, ev)
		}
	}
	sharers := func(s ...network.Endpoint) func(*Model) {
		return func(m *Model) { craftDirLine(m).sharers = s }
	}
	pending := func(srcs ...int) func(*Model) {
		return func(m *Model) {
			dl := craftDirLine(m)
			for _, s := range srcs {
				dl.pending = append(dl.pending, *craftMsg(m, s))
			}
		}
	}
	latest := func(v uint64) func(*Model) {
		return func(m *Model) { m.latest[1] = v }
	}
	cases := []struct {
		name string
		edit func(*Model)
	}{
		{"initial", func(*Model) {}},
		{"pc is 'o'", func(m *Model) { m.ps[0].core.pc = 'o' }},
		{"observed is 'v'", func(m *Model) { m.ps[1].core.observed[0] = 'v' }},
		{"latest is ';'", latest(';')},
		{"early DelayedAcks are 'l'", func(m *Model) {
			bank := m.bs[0].bank
			for len(bank.earlyDelayed) < 'l' {
				bank.earlyDelayed = append(bank.earlyDelayed, m.lines[0])
			}
		}},
		{"latest is 254", latest(254)},
		{"latest is 255", latest(255)},
		{"latest is 256", latest(256)},
		{"latest is 255<<8", latest(255 << 8)},
		{"latest is 1<<40", latest(1 << 40)},
		{"latest is max", latest(math.MaxUint64)},
		{"sharers [1]", sharers(1)},
		{"sharers [1 2]", sharers(1, 2)},
		// Without the sharer count these two read 0,1,2,7,0 after the
		// line's kind: sharer 0 then flags hasOwner then owner 2, against
		// sharers 0 and 1 then flags dataValid (bit value 2).
		{"sharers [0] owner 2", func(m *Model) {
			dl := craftDirLine(m)
			dl.sharers, dl.hasOwner, dl.owner = []network.Endpoint{0}, true, 2
		}},
		{"sharers [0 1] data valid", func(m *Model) {
			dl := craftDirLine(m)
			dl.sharers, dl.dataValid = []network.Endpoint{0, 1}, true
		}},
		{"pending none", pending()},
		{"pending [core 1]", pending(1)},
		{"pending [core 1, core 1]", pending(1, 1)},
		{"pending [core 1, core 2]", pending(1, 2)},
		{"bank events [fetch l1]", func(m *Model) { schedule(&m.bs[0].bank.events, fetch(m, 0)) }},
		{"bank events [fetch l1, fetch l2]", func(m *Model) { schedule(&m.bs[0].bank.events, fetch(m, 0), fetch(m, 1)) }},
		{"bank events [fetch l1, fetch l1]", func(m *Model) { schedule(&m.bs[0].bank.events, fetch(m, 0), fetch(m, 0)) }},
		{"pcu 0 events [fetch l1]", func(m *Model) { schedule(&m.ps[0].pcu.events, fetch(m, 0)) }},
		{"pcu 1 events [fetch l1]", func(m *Model) { schedule(&m.ps[1].pcu.events, fetch(m, 0)) }},
		{"network [GetS]", func(m *Model) {
			m.net = append(m.net, inFlight(3, craftMsg(m, 1)))
		}},
		{"network [GetS, GetS]", func(m *Model) {
			m.net = append(m.net, inFlight(3, craftMsg(m, 1)),
				inFlight(3, craftMsg(m, 1)))
		}},
	}
	build := func(edit func(*Model)) (string, string) {
		m := NewModel(fpCfg)
		edit(m)
		return m.Fingerprint(), string(m.fingerprintMapped(&m.symmetry().perms[0], nil, nil))
	}
	seen := map[string]string{}
	for _, c := range cases {
		fp, mapped := build(c.edit)
		if again, _ := build(c.edit); again != fp {
			t.Errorf("%s: rebuilding the same state changed its fingerprint\n got %x\nwant %x", c.name, again, fp)
		}
		if mapped != fp {
			t.Errorf("%s: identity-mapped fingerprint %x differs from Fingerprint %x", c.name, mapped, fp)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("states %q and %q share the fingerprint %x", prev, c.name, fp)
		}
		seen[fp] = c.name
	}

	// Multisets are sorted: the order events were scheduled and messages
	// injected in is not part of the state.
	a, _ := build(func(m *Model) {
		schedule(&m.bs[0].bank.events, fetch(m, 0), fetch(m, 1))
		m.net = append(m.net, inFlight(3, craftMsg(m, 1)),
			inFlight(3, craftMsg(m, 2)))
	})
	b, _ := build(func(m *Model) {
		schedule(&m.bs[0].bank.events, fetch(m, 1), fetch(m, 0))
		m.net = append(m.net, inFlight(3, craftMsg(m, 2)),
			inFlight(3, craftMsg(m, 1)))
	})
	if a != b {
		t.Errorf("reordered multisets changed the fingerprint\n got %x\nwant %x", b, a)
	}
}

// TestFingerprintMatchesIdentityMapping pins the agreement the
// canonical path relies on: under the identity permutation the mapped
// encoder must reproduce Fingerprint byte for byte wherever the only
// difference between them — the mapped path sorts sharer lists — has
// nothing to sort.
func TestFingerprintMatchesIdentityMapping(t *testing.T) {
	sorted := func(m *Model) bool {
		for _, s := range m.bs {
			for _, dl := range s.bank.lines {
				if !slices.IsSorted(dl.sharers) {
					return false
				}
			}
			for _, dl := range s.bank.evbuf {
				if !slices.IsSorted(dl.sharers) {
					return false
				}
			}
		}
		return true
	}
	compared, withSharers := 0, 0
	for _, cfg := range cloneCfgs {
		rnd := lcg(uint64(cfg.Cores)*43 + uint64(cfg.Banks)*11 + uint64(cfg.Mode))
		for walk := 0; walk < 40; walk++ {
			m := NewModel(cfg)
			id := &m.symmetry().perms[0]
			for step := 0; step < 80; step++ {
				if sorted(m) {
					fp, mapped := m.Fingerprint(), string(m.fingerprintMapped(id, nil, nil))
					if fp != mapped {
						t.Fatalf("cfg %+v walk %d step %d: identity-mapped fingerprint diverges\n got %x\nwant %x",
							cfg, walk, step, mapped, fp)
					}
					compared++
					for _, s := range m.bs {
						for _, dl := range s.bank.lines {
							if len(dl.sharers) > 0 {
								withSharers++
							}
						}
					}
				}
				n := m.NumChoices()
				if n == 0 || m.Violation() != "" {
					break
				}
				m.ApplyIndex(int(rnd.next() % uint64(n)))
			}
		}
	}
	if compared == 0 || withSharers == 0 {
		t.Errorf("compared %d states, %d directory entries with sharers; the test has no teeth", compared, withSharers)
	}
}

// TestUnfingerprintableEventNamesType: a pending event of a kind the
// encoders do not know would hide state from the fingerprint, so both
// the identity and the mapped encoder panic, naming its kind.
func TestUnfingerprintableEventNamesType(t *testing.T) {
	m := NewModel(fpCfg)
	m.bs[0].bank.events.At(0, deferred{kind: 99})
	for _, c := range []struct {
		name string
		fp   func() string
	}{
		{"Fingerprint", m.Fingerprint},
		{"CanonicalFingerprint", m.CanonicalFingerprint},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "kind 99") {
					t.Errorf("%s: panic %q does not name the event kind", c.name, msg)
				}
			}()
			c.fp()
		}()
	}
}
