package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// recordKeys returns, for every record of a crosserve JSON archive, its
// keys in file order.
func recordKeys(t *testing.T, path string) [][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var records []json.RawMessage
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	out := make([][]string, len(records))
	for i, rec := range records {
		dec := json.NewDecoder(bytes.NewReader(rec))
		if _, err := dec.Token(); err != nil { // the opening brace
			t.Fatalf("%s record %d: %v", path, i, err)
		}
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				t.Fatalf("%s record %d: %v", path, i, err)
			}
			out[i] = append(out[i], key.(string))
			var value json.RawMessage // skipped whole, whatever its shape
			if err := dec.Decode(&value); err != nil {
				t.Fatalf("%s record %d: %v", path, i, err)
			}
		}
	}
	return out
}

// TestRecordSchemas runs every mode at the smallest scale its contract
// holds at and demands the JSON key lists of the committed archives.
// `make digests` pins BENCH_PR6..10's values, but their schema only
// through a full re-record, and the single sync and rings cells it runs
// here are not in any archive.
func TestRecordSchemas(t *testing.T) {
	for _, tc := range []struct {
		archive string
		args    []string
	}{
		{"BENCH_PR6.json", []string{"-mode", "sync", "-tenants", "2", "-sessions", "2", "-ops", "16", "-file-mb", "4", "-iosize", "16384"}},
		{"BENCH_PR6.json", []string{"-mode", "rings", "-tenants", "2", "-sessions", "2", "-ops", "16", "-file-mb", "4", "-iosize", "16384"}},
		{"BENCH_PR7.json", []string{"-mode", "overload", "-sweep", "-tenants", "2", "-ops", "48", "-file-mb", "4", "-iosize", "16384"}},
		{"BENCH_PR8.json", []string{"-mode", "score", "-sessions", "2", "-ops", "128", "-file-mb", "8", "-iosize", "16384"}},
		{"BENCH_PR9.json", []string{"-mode", "predict", "-ops", "512", "-file-mb", "4", "-iosize", "16384"}},
		// crosserve fixes the tier sweep's 512KB readahead window, which
		// 16KB reads of a small file cannot feed; 64KB reads can.
		{"BENCH_PR10.json", []string{"-mode", "tier", "-ops", "128", "-file-mb", "8", "-iosize", "65536"}},
	} {
		t.Run(tc.args[1], func(t *testing.T) {
			want := recordKeys(t, filepath.Join("..", "..", tc.archive))[0]
			out := filepath.Join(t.TempDir(), "out.json")
			if err := run(append(tc.args, "-json", out), io.Discard); err != nil {
				t.Fatal(err)
			}
			got := recordKeys(t, out)
			if len(got) == 0 {
				t.Fatal("no records written")
			}
			for i, keys := range got {
				if !reflect.DeepEqual(keys, want) {
					t.Errorf("record %d keys\n got %v\nwant %v", i, keys, want)
				}
			}
		})
	}
}
