package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzRead feeds arbitrary bytes to the decoder, seeded with golden
// Manager checkpoints (an ADA stream past warmup, an ADA stream still
// buffering its warmup window, an STA stream with its retained window;
// see TestCheckpointGoldenDigests in the root package, which pins
// their bytes). The properties: Read never panics and reports every
// failure as ErrBadCheckpoint; Write never panics on anything Read
// accepts; and what Write produces reads back and re-encodes to the
// same bytes.
//
// Run it with: go test -fuzz FuzzRead -fuzztime 30s ./internal/checkpoint
func FuzzRead(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "golden", "*.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) == 0 {
		f.Fatal("no golden seed checkpoints in testdata/golden")
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	var cold bytes.Buffer
	if err := Write(&cold, coldSnapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(cold.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Read(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("Read error %v does not wrap ErrBadCheckpoint", err)
			}
			return
		}
		var first bytes.Buffer
		if err := Write(&first, snap); err != nil {
			return
		}
		again, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading a written checkpoint: %v", err)
		}
		var second bytes.Buffer
		if err := Write(&second, again); err != nil {
			t.Fatalf("re-writing a re-read checkpoint: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("write → read → write is not a fixed point")
		}
	})
}

// TestTruncatedSectionAllocatesLittle pins the decoder's allocation
// against a header claiming the largest allowed section but carrying a
// few bytes: the payload must grow with the bytes present, not be
// allocated at the claimed length.
func TestTruncatedSectionAllocatesLittle(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.Write(binary.AppendUvarint(nil, Version))
	buf.WriteString(tagConfig)
	buf.Write(binary.AppendUvarint(nil, maxSliceLen))
	buf.WriteString("a few payload bytes")
	raw := buf.Bytes()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("truncated section: err = %v, want ErrBadCheckpoint", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("decoding a %d-byte input allocated %d bytes", len(raw), got)
	}
}
