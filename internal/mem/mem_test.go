package mem

import (
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	if LineBytes != 64 || WordBytes != 8 || LineWords != 8 {
		t.Fatalf("unexpected geometry: %d/%d/%d", LineBytes, WordBytes, LineWords)
	}
	if 1<<LineShift != LineBytes {
		t.Fatalf("LineShift %d does not match LineBytes %d", LineShift, LineBytes)
	}
}

func TestLineOf(t *testing.T) {
	cases := []struct {
		addr Addr
		line Line
	}{
		{0x0, 0},
		{0x3f, 0},
		{0x40, 1},
		{0x7f, 1},
		{0x1000, 0x40},
	}
	for _, c := range cases {
		if got := LineOf(c.addr); got != c.line {
			t.Errorf("LineOf(%v) = %v, want %v", c.addr, got, c.line)
		}
	}
}

func TestLineBaseRoundTrip(t *testing.T) {
	if err := quick.Check(func(a uint64) bool {
		addr := Addr(a)
		l := LineOf(addr)
		base := l.Base()
		return LineOf(base) == l && base <= addr && addr-base < LineBytes
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestWordIndex(t *testing.T) {
	if WordIndex(0x40) != 0 || WordIndex(0x48) != 1 || WordIndex(0x78) != 7 {
		t.Fatal("WordIndex broken")
	}
}

func TestAlignWord(t *testing.T) {
	if err := quick.Check(func(a uint64) bool {
		w := AlignWord(Addr(a))
		return w%WordBytes == 0 && w <= Addr(a) && Addr(a)-w < WordBytes
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestLineDataGetSet(t *testing.T) {
	var d LineData
	base := Addr(0x1000)
	for i := 0; i < LineWords; i++ {
		d.Set(base+Addr(i*WordBytes), Word(i*100))
	}
	for i := 0; i < LineWords; i++ {
		if got := d.Get(base + Addr(i*WordBytes)); got != Word(i*100) {
			t.Errorf("word %d = %d", i, got)
		}
	}
}

func TestMemoryZeroDefault(t *testing.T) {
	m := NewMemory()
	if m.ReadWord(0xdeadbeef0) != 0 {
		t.Fatal("uninitialized memory not zero")
	}
	if m.Footprint() != 0 {
		t.Fatal("read materialized a line")
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	m.WriteWord(0x100, 42)
	m.WriteWord(0x108, 43)
	if m.ReadWord(0x100) != 42 || m.ReadWord(0x108) != 43 {
		t.Fatal("readback mismatch")
	}
	if m.Footprint() != 1 {
		t.Fatalf("footprint = %d, want 1 (same line)", m.Footprint())
	}
}

func TestMemoryLineOps(t *testing.T) {
	m := NewMemory()
	var d LineData
	for i := range d {
		d[i] = Word(i + 1)
	}
	m.WriteLine(5, d)
	got := m.ReadLine(5)
	if got != d {
		t.Fatal("line round trip failed")
	}
	// WriteLine must copy: mutating d afterwards must not affect memory.
	d[0] = 999
	if m.ReadLine(5)[0] == 999 {
		t.Fatal("WriteLine aliases caller data")
	}
}

// TestMemoryWriteLineZeroAlloc: rewriting a materialized line (a
// directory write-back) overwrites it in place and allocates nothing,
// and a CloneInto copy owns its lines, so a later write to the source
// leaves the copy unchanged.
func TestMemoryWriteLineZeroAlloc(t *testing.T) {
	m := NewMemory()
	var d LineData
	m.WriteLine(5, d)
	if allocs := testing.AllocsPerRun(100, func() {
		d[0]++
		m.WriteLine(5, d)
	}); allocs != 0 {
		t.Fatalf("rewriting a line allocated %v objects, want 0", allocs)
	}
	if got := m.ReadLine(5); got != d {
		t.Fatalf("line reads %v after rewrite, want %v", got, d)
	}

	c := NewMemory()
	m.CloneInto(c)
	want := m.ReadLine(5)
	d[1] = 77
	m.WriteLine(5, d)
	m.WriteWord(5<<LineShift, 99)
	if got := c.ReadLine(5); got != want {
		t.Fatalf("clone's line changed to %v after the source was written, want %v", got, want)
	}
}

func TestMemoryWordLineConsistency(t *testing.T) {
	if err := quick.Check(func(a uint64, v uint64) bool {
		m := NewMemory()
		addr := AlignWord(Addr(a))
		m.WriteWord(addr, Word(v))
		line := m.ReadLine(LineOf(addr))
		return line.Get(addr) == Word(v) && m.ReadWord(addr) == Word(v)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestAddrStrings(t *testing.T) {
	if Addr(0x40).String() != "0x40" {
		t.Errorf("Addr string: %s", Addr(0x40).String())
	}
	if Line(1).String() != "L0x40" {
		t.Errorf("Line string: %s", Line(1).String())
	}
}
