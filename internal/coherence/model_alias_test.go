package coherence

import (
	"reflect"
	"strings"
	"testing"
)

// TestCloneSharesNoMutableState is the structural complement to the
// behavioral clone tests (and to the clonecomplete analyzer): after a
// deep walk and a Clone, reflection sweeps both object graphs in
// lockstep and reports any pointer, slice, or map that is ALIASED
// between original and clone — naming the exact field path — unless the
// path is on the immutable-by-design allowlist. A new Model (or Bank,
// PCU, dirLine, ...) field holding mutable state that cloning forgets
// shows up here as its own name, not as a fingerprint mismatch three
// layers away.
func TestCloneSharesNoMutableState(t *testing.T) {
	for _, cfg := range cloneCfgs {
		rnd := lcg(uint64(cfg.Cores)*57 + uint64(cfg.Mode))
		m := NewModel(cfg)
		for step := 0; step < 30; step++ {
			n := m.NumChoices()
			if n == 0 || m.Violation() != "" {
				break
			}
			m.ApplyIndex(int(rnd.next() % uint64(n)))
		}
		cl := m.Clone()
		var aliased []string
		sweepAliases(reflect.ValueOf(m).Elem(), reflect.ValueOf(cl).Elem(),
			"Model", &aliased, map[[2]uintptr]bool{}, 0)
		for _, path := range aliased {
			if aliasAllowed(path) {
				continue
			}
			t.Errorf("cfg %+v: %s is aliased between original and clone; deep-copy it in model_clone.go (or extend the immutable allowlist if it truly never mutates)", cfg, path)
		}
	}
}

// aliasAllowed lists the object graph edges that are shared by design:
// immutable after construction, so aliasing them is the point.
func aliasAllowed(path string) bool {
	// The modeled line universe and the per-core op programs are frozen
	// at NewModel; the suffix forms also cover the re-walk through a
	// component's model back-pointer. (Bank.lines, the mutable map,
	// renders as .bs[i].bank.lines and stays checked.)
	if path == "Model.lines" || strings.HasSuffix(path, ".m.lines") ||
		strings.HasSuffix(path, ".prog") {
		return true
	}
	for _, frag := range []string{
		".machine", // composed transition tables: immutable once built
		".sym",     // symmetry group: computed once, read-only
		".conf",    // conformance recorder: test-only observer, never cloned
		".cfg",     // model configuration: frozen at NewModel
		".params",  // simulation parameters: frozen at NewModel
		".home",    // line->bank mapping func: pure
		".whys",    // table audit strings: immutable
		".fx",      // table effects metadata: immutable
	} {
		if strings.Contains(path, frag) {
			return true
		}
	}
	return false
}

// sweepAliases walks two parallel object graphs and records every path
// where both sides hold the same underlying pointer. Funcs are skipped
// (hooks are shared or rebound by design and carry no state of their
// own); unexported fields are inspected via Pointer(), which reflect
// permits without Interface().
func sweepAliases(a, b reflect.Value, path string, out *[]string, seen map[[2]uintptr]bool, depth int) {
	if depth > 12 || !a.IsValid() || !b.IsValid() || a.Type() != b.Type() {
		return
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return
		}
		key := [2]uintptr{a.Pointer(), b.Pointer()}
		if seen[key] {
			return
		}
		seen[key] = true
		if a.Pointer() == b.Pointer() {
			*out = append(*out, path)
			return
		}
		sweepAliases(a.Elem(), b.Elem(), path, out, seen, depth+1)
	case reflect.Slice:
		if a.Cap() > 0 && b.Cap() > 0 && a.Pointer() == b.Pointer() {
			*out = append(*out, path)
			return
		}
		n := min(a.Len(), b.Len())
		for i := 0; i < n; i++ {
			sweepAliases(a.Index(i), b.Index(i), path+"[i]", out, seen, depth+1)
		}
	case reflect.Map:
		if a.IsNil() || b.IsNil() {
			return
		}
		if a.Pointer() == b.Pointer() {
			*out = append(*out, path)
			return
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			sweepAliases(iter.Value(), bv, path+"[k]", out, seen, depth+1)
		}
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return
		}
		sweepAliases(a.Elem(), b.Elem(), path, out, seen, depth+1)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			sweepAliases(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name, out, seen, depth+1)
		}
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			sweepAliases(a.Index(i), b.Index(i), path+"[i]", out, seen, depth+1)
		}
	}
}
