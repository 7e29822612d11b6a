package tiresias

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"tiresias/internal/checkpoint"
)

// goldenStreamDigests checkpoints m into a fresh directory and returns
// the sorted SHA-256 digests of the per-stream files of the live
// generation. Sorting makes the result independent of how streams are
// laid out across shard files; the digests pin every byte of each
// stream's encoding.
func goldenStreamDigests(t *testing.T, m *Manager) []string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ckpt")
	if _, err := m.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*", "*"+checkpointExt))
	if err != nil {
		t.Fatal(err)
	}
	var sums []string
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		sums = append(sums, hex.EncodeToString(sum[:]))
	}
	sort.Strings(sums)
	return sums
}

// TestCheckpointGoldenDigests pins the checkpoint format byte for
// byte: two Managers fed from the record path only (an ADA Manager
// with one warm stream and one stream still inside warmup, an STA
// Manager with one warm stream) must checkpoint to exactly these
// files. A change here is a format change: it needs a Version bump or
// a deliberate, documented re-recording.
func TestCheckpointGoldenDigests(t *testing.T) {
	ds := ckptDataset(t, 40, 91)
	opts := func(alg Algorithm) []Option {
		return []Option{WithWindowLen(16), WithTheta(8), WithAlgorithm(alg),
			WithReferenceLevels(2), WithSeasonality(1.0, 8)}
	}
	newMgr := func(alg Algorithm) *Manager {
		m, err := NewManager(WithShards(2), WithDetectorOptions(opts(alg)...))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	ada := newMgr(AlgorithmADA)
	// "warm" stops mid-unit well past warmup; "cold" stops mid-unit
	// inside warmup, so the warm buffer is serialized.
	feedAll(t, ada, "warm", ds.Records[:3*len(ds.Records)/4])
	cold := 0
	for ds.Records[cold].Time.Before(ds.Records[0].Time.Add(8 * 15 * time.Minute)) {
		cold++
	}
	feedAll(t, ada, "cold", ds.Records[:cold+3])
	if st := ada.Streams(); len(st) != 2 || !st[1].Warm || st[0].Warm || st[0].PendingWarmup == 0 {
		t.Fatalf("ADA manager streams %+v, want cold mid-warmup and warm", st)
	}
	sta := newMgr(AlgorithmSTA)
	feedAll(t, sta, "warm", ds.Records[:3*len(ds.Records)/4])

	cases := []struct {
		name string
		m    *Manager
		want []string
	}{
		{"ADA", ada, []string{
			"8aa2135b8cb2c814c66ab4f082dafe1a6cb9e10a0c450354f00ca4135d04300d",
			"8e379e97cb8d6864900ac85c0a87baae146ba46c76f063140a1e3aa9eb4b61f5",
		}},
		{"STA", sta, []string{
			"5f3f3ab7d0349a67c3f14c1870c2700055c23eb0992ad321adfa0be032055659",
		}},
	}
	for _, c := range cases {
		got := goldenStreamDigests(t, c.m)
		if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s checkpoint digests changed:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}

// TestCheckpointFilesInNameOrder pins the generation layout: within a
// shard, stream files are numbered in stream-name order, so two
// checkpoints of the same state produce the same file names, not just
// the same set of file contents.
func TestCheckpointFilesInNameOrder(t *testing.T) {
	m, err := NewManager(WithShards(1), WithDetectorOptions(WithWindowLen(4), WithTheta(2)))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"delta", "alpha", "foxtrot", "charlie", "hotel", "echo", "bravo", "golf"}
	at := time.Date(2010, 5, 3, 0, 0, 0, 0, time.UTC)
	for _, name := range names {
		feedAll(t, m, name, []Record{{Path: []string{"v1", name}, Time: at}})
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	if _, err := m.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*", "*"+checkpointExt))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := checkpoint.Read(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, snap.Stream.Name)
	}
	want := append([]string(nil), names...)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("stream files in order %v, want %v", got, want)
	}
}
