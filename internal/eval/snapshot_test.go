package eval

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ast"
	"repro/internal/difftree"
)

// warmFigure1Cache runs the Figure 1 workload's hot primitives through a
// fresh cache and returns it together with the engine's (key, cost) pairs
// for later comparison.
func warmFigure1Cache(t *testing.T) (*Cache, *Engine, map[uint64]float64) {
	t.Helper()
	c := NewCache(0)
	eng := figure1Engine(t, c)
	init, err := difftree.Initial(eng.cfg.Log)
	if err != nil {
		t.Fatal(err)
	}
	costs := make(map[uint64]float64)
	// Walk two plies of neighbors: enough states for a meaningful snapshot.
	frontier := []*difftree.Node{init}
	for depth := 0; depth < 2 && len(costs) < 200; depth++ {
		var next []*difftree.Node
		for _, d := range frontier {
			costs[eng.key(difftree.Hash(d))] = eng.StateCost(d)
			eng.LegalState(d)
			next = append(next, eng.Neighbors(d)...)
		}
		frontier = next
	}
	if len(costs) < 3 {
		t.Fatalf("expected a non-trivial warm set, got %d states", len(costs))
	}
	return c, eng, costs
}

func snapshotBytes(t *testing.T, c *Cache) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := c.Snapshot(&buf)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if n <= 0 {
		t.Fatalf("Snapshot exported %d entries", n)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	src, eng, costs := warmFigure1Cache(t)
	raw := snapshotBytes(t, src)

	dst := NewCache(0)
	n, err := dst.LoadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if n <= 0 {
		t.Fatalf("imported %d entries", n)
	}
	for key, want := range costs {
		got, ok := cachedCost(dst, key)
		if !ok {
			t.Fatalf("key %#x missing after import", key)
		}
		if got != want {
			t.Fatalf("key %#x: imported cost %v != original %v", key, got, want)
		}
	}
	// The fingerprint inventory travels with the entries.
	fps := dst.Fingerprints()
	if len(fps) != 1 || fps[0] != eng.fp {
		t.Fatalf("imported fingerprints = %v, want [%#x]", fps, eng.fp)
	}
}

func TestSnapshotImportIdempotentAndFirstWriteWins(t *testing.T) {
	src, _, costs := warmFigure1Cache(t)
	raw := snapshotBytes(t, src)

	dst := NewCache(0)
	// Pre-populate one key with a sentinel value: import must not clobber it.
	var anyKey uint64
	for k := range costs {
		anyKey = k
		break
	}
	dst.SetCost(anyKey, 12345.5)

	before := dst.Stats().Entries
	_ = before
	if _, err := dst.LoadSnapshot(bytes.NewReader(raw)); err != nil {
		t.Fatalf("first import: %v", err)
	}
	entries1 := dst.Stats().Entries
	if _, err := dst.LoadSnapshot(bytes.NewReader(raw)); err != nil {
		t.Fatalf("second import: %v", err)
	}
	if entries2 := dst.Stats().Entries; entries2 != entries1 {
		t.Fatalf("re-import changed occupancy: %d -> %d", entries1, entries2)
	}
	if got, _ := cachedCost(dst, anyKey); got != 12345.5 {
		t.Fatalf("import clobbered a pre-existing entry: got %v, want sentinel 12345.5", got)
	}
}

func TestSetCostFirstWriteWins(t *testing.T) {
	c := NewCache(0)
	c.SetCost(7, 1.5)
	c.SetCost(7, 99)
	if v, ok := cachedCost(c, 7); !ok || v != 1.5 {
		t.Fatalf("SetCost overwrote: got %v, want 1.5", v)
	}
	c.SetLegal(7, true)
	c.SetLegal(7, false)
	if v, ok := c.Probe(7); !ok || !v.HasLegal || !v.Legal {
		t.Fatalf("SetLegal overwrote: got legal=%v, want true", v.Legal)
	}
}

func TestSnapshotTruncationNeverPanics(t *testing.T) {
	src, _, _ := warmFigure1Cache(t)
	raw := snapshotBytes(t, src)
	for cut := 0; cut < len(raw); cut += 1 + cut/16 {
		dst := NewCache(0)
		n, err := dst.LoadSnapshot(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(raw))
		}
		if n != 0 {
			t.Fatalf("truncation at %d imported %d entries", cut, n)
		}
		if got := dst.Stats().Entries; got != 0 {
			t.Fatalf("truncation at %d left %d entries in the cache", cut, got)
		}
	}
}

func TestSnapshotCorruptionRejectedBeforeInsert(t *testing.T) {
	src, _, _ := warmFigure1Cache(t)
	raw := snapshotBytes(t, src)
	// Flip one byte in the entry region (past magic + kind table) — the
	// checksum must catch it, and nothing may land in the cache.
	corrupt := bytes.Clone(raw)
	corrupt[len(corrupt)/2] ^= 0xff
	dst := NewCache(0)
	_, err := dst.LoadSnapshot(bytes.NewReader(corrupt))
	if err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	if !errors.Is(err, ErrSnapshotFormat) && !errors.Is(err, ErrSnapshotSchema) {
		t.Fatalf("corrupt snapshot: unexpected error class %v", err)
	}
	if got := dst.Stats().Entries; got != 0 {
		t.Fatalf("corrupt snapshot planted %d entries", got)
	}
}

func TestSnapshotBadMagicRejected(t *testing.T) {
	src, _, _ := warmFigure1Cache(t)
	raw := snapshotBytes(t, src)
	raw[0] ^= 0x01
	if _, err := NewCache(0).LoadSnapshot(bytes.NewReader(raw)); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("bad magic: got %v, want ErrSnapshotFormat", err)
	}
}

func TestSnapshotKindGuard(t *testing.T) {
	src, _, _ := warmFigure1Cache(t)
	raw := snapshotBytes(t, src)
	names := ast.KindNames()

	// A snapshot claiming more kinds than this build knows: written by a
	// newer grammar, must be rejected as a schema mismatch.
	newer := bytes.Clone(raw)
	binary.LittleEndian.PutUint16(newer[8:10], uint16(len(names)+1))
	if _, err := NewCache(0).LoadSnapshot(bytes.NewReader(newer)); !errors.Is(err, ErrSnapshotSchema) {
		t.Fatalf("newer-grammar snapshot: got %v, want ErrSnapshotSchema", err)
	}

	// A renamed kind at the same index: numbering changed, must be rejected.
	// Kind 0 is "Invalid"; its name bytes start at offset 8+2+1.
	renamed := bytes.Clone(raw)
	renamed[11] ^= 0x20 // "Invalid" -> "invalid"
	_, err := NewCache(0).LoadSnapshot(bytes.NewReader(renamed))
	if !errors.Is(err, ErrSnapshotSchema) {
		t.Fatalf("renamed-kind snapshot: got %v, want ErrSnapshotSchema", err)
	}
}

func TestSnapshotImportIntoSmallerCacheEvicts(t *testing.T) {
	src, _, _ := warmFigure1Cache(t)
	raw := snapshotBytes(t, src)
	exported := src.Stats().Entries

	// One slot per shard: far smaller than the snapshot.
	small := NewCache(shardCount)
	n, err := small.LoadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("LoadSnapshot into small cache: %v", err)
	}
	if n != exported {
		t.Fatalf("import processed %d entries, snapshot had %d", n, exported)
	}
	st := small.Stats()
	if st.Entries > st.Capacity {
		t.Fatalf("occupancy %d exceeds capacity %d", st.Entries, st.Capacity)
	}
}

func TestSnapshotSkipsNonPortableAspects(t *testing.T) {
	c := NewCache(0)
	// moves/pools-only entries hold process-local pointers; they must not be
	// exported, and an entry with no portable aspect must not appear at all.
	c.SetMoves(1, nil)
	c.SetPools(2, [4][]difftree.Path{})
	c.SetCost(3, 7)
	var buf bytes.Buffer
	n, err := c.Snapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("exported %d entries, want 1 (cost-only)", n)
	}
	dst := NewCache(0)
	if _, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if v, ok := cachedCost(dst, 3); !ok || v != 7 {
		t.Fatalf("cost entry lost: %v %v", v, ok)
	}
	for _, key := range []uint64{1, 2} {
		if _, ok := dst.Probe(key); ok {
			t.Fatalf("moves/pools-only entry %d travelled across the snapshot", key)
		}
	}
}

func TestSnapshotPreservesSpecialFloats(t *testing.T) {
	c := NewCache(0)
	c.SetCost(1, math.Inf(1)) // illegal-assignment states cost +Inf
	var buf bytes.Buffer
	if _, err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewCache(0)
	if _, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if v, ok := cachedCost(dst, 1); !ok || !math.IsInf(v, 1) {
		t.Fatalf("+Inf did not round-trip: %v %v", v, ok)
	}
}

func TestSnapshotFileAtomicRoundTrip(t *testing.T) {
	src, _, costs := warmFigure1Cache(t)
	path := filepath.Join(t.TempDir(), "cache.snap")
	n, err := SaveSnapshotFile(src, path)
	if err != nil {
		t.Fatalf("SaveSnapshotFile: %v", err)
	}
	if n <= 0 {
		t.Fatalf("saved %d entries", n)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	dst := NewCache(0)
	if _, err := LoadSnapshotFile(dst, path); err != nil {
		t.Fatalf("LoadSnapshotFile: %v", err)
	}
	for key, want := range costs {
		if got, ok := cachedCost(dst, key); !ok || got != want {
			t.Fatalf("key %#x: %v (ok=%v), want %v", key, got, ok, want)
		}
	}
	// Overwrite must go through the same atomic path.
	if _, err := SaveSnapshotFile(src, path); err != nil {
		t.Fatalf("re-save: %v", err)
	}
}

func TestLoadSnapshotFileMissing(t *testing.T) {
	if _, err := LoadSnapshotFile(NewCache(0), filepath.Join(t.TempDir(), "nope.snap")); err == nil {
		t.Fatal("missing file accepted")
	}
}
