package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestAllRunsPastAFailure: under -exp all an experiment that fails does
// not hide the ones after it. They still run, print their tables and write
// their CSV, and run returns every failure, joined.
func TestAllRunsPastAFailure(t *testing.T) {
	saved := catalog
	defer func() { catalog = saved }()
	table := func(id string) experiments.Runner {
		return func(experiments.Options) (*experiments.Report, error) {
			return &experiments.Report{Table: &experiments.Table{ID: id, Title: "stand-in", Columns: []string{"x"}, Rows: [][]string{{"1"}}}}, nil
		}
	}
	fail := func(experiments.Options) (*experiments.Report, error) { return nil, errors.New("contract broken") }
	runners := map[string]experiments.Runner{"a": fail, "b": table("b"), "c": fail, "d": table("d")}
	catalog.ids = func() []string { return []string{"a", "b", "c", "d"} }
	catalog.get = func(id string) (experiments.Runner, error) { return runners[id], nil }

	var out bytes.Buffer
	csvPath := filepath.Join(t.TempDir(), "all.csv")
	err := run([]string{"-exp", "all", "-csv", csvPath}, &out)
	if err == nil || err.Error() != "a: contract broken\nc: contract broken" {
		t.Fatalf("err = %v, want both failures", err)
	}
	csv, rerr := os.ReadFile(csvPath)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, id := range []string{"b", "d"} {
		if !strings.Contains(out.String(), "== "+id+": stand-in ==") {
			t.Errorf("no table for %s after a failure:\n%s", id, out.String())
		}
		if !strings.Contains(string(csv), "# "+id+": stand-in\n") {
			t.Errorf("no CSV for %s after a failure:\n%s", id, csv)
		}
	}
}

// recordKeys reads a records archive and returns the key list, in file
// order, of every record whose "mode" is mode (of every record when mode is
// empty).
func recordKeys(t *testing.T, path, mode string) [][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var records []json.RawMessage
	if err := json.Unmarshal(data, &records); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var out [][]string
	for i, rec := range records {
		var tag struct {
			Mode string `json:"mode"`
		}
		if err := json.Unmarshal(rec, &tag); err != nil {
			t.Fatalf("%s record %d: %v", path, i, err)
		}
		if mode != "" && tag.Mode != mode {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(rec))
		if _, err := dec.Token(); err != nil { // the opening brace
			t.Fatalf("%s record %d: %v", path, i, err)
		}
		var keys []string
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				t.Fatalf("%s record %d: %v", path, i, err)
			}
			keys = append(keys, key.(string))
			var value json.RawMessage // skipped whole, whatever its shape
			if err := dec.Decode(&value); err != nil {
				t.Fatalf("%s record %d: %v", path, i, err)
			}
		}
		out = append(out, keys)
	}
	return out
}

// TestRecordSchemas runs every sweep at quick scale through -json DIR and
// demands that DIR holds only <id>.json, with the expected record count,
// each record carrying the key list of the committed full-scale archive in
// its order. serve's sync and rings cells are held apart, as their own
// cases.
func TestRecordSchemas(t *testing.T) {
	for _, tc := range []struct {
		name, exp, mode string
		records         int
	}{
		{"sync", "serve", "sync", 2},
		{"rings", "serve", "rings", 2},
		{"overload", "overload", "", 4},
		{"score", "score", "", 4}, // one per pattern
		{"predict", "predict", "", 6},
		{"tier", "tier", "", 18},
		{"chaos", "chaos", "", 3}, // baseline, transient10, persistent-range
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := run([]string{"-exp", tc.exp, "-quick", "-json", dir}, io.Discard); err != nil {
				t.Fatal(err)
			}
			archive := filepath.Join("..", "..", "testdata", "sweeps", tc.exp+".json")
			want := recordKeys(t, archive, tc.mode)[0]
			got := recordKeys(t, filepath.Join(dir, tc.exp+".json"), tc.mode)
			if len(got) != tc.records {
				t.Fatalf("%d records, want %d", len(got), tc.records)
			}
			for i, keys := range got {
				if !reflect.DeepEqual(keys, want) {
					t.Errorf("record %d keys\n got %v\nwant %v", i, keys, want)
				}
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 1 {
				t.Errorf("%d files in the -json directory, want only %s.json", len(entries), tc.exp)
			}
		})
	}
}

// TestAdminServesTheRunAndDrains: -admin implies -telemetry, and the
// listener is gone once run returns.
func TestAdminServesTheRunAndDrains(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "serve", "-quick", "-admin", "127.0.0.1:0"}, &out); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`admin plane on http://(\S+) `).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no admin address in the output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "telemetry serve rings-t4: audit ok") {
		t.Errorf("-admin did not imply -telemetry:\n%s", out.String())
	}
	if conn, err := net.DialTimeout("tcp", m[1], time.Second); err == nil {
		conn.Close()
		t.Fatalf("admin listener %s still accepts connections after run returned", m[1])
	}
}

// TestTraceReachesEverySweepCell: -trace traces every cell of a sweep that
// builds its own configuration, one Chrome-trace process per cell, each
// audited.
func TestTraceReachesEverySweepCell(t *testing.T) {
	var out bytes.Buffer
	path := filepath.Join(t.TempDir(), "t.json")
	if err := run([]string{"-exp", "tier", "-quick", "-trace", path}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "audit ok"); got != 18 {
		t.Errorf("%d audited systems, want 18:\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "trace: wrote 18 process(es)") {
		t.Errorf("-trace did not reach every tier cell:\n%s", out.String())
	}
}
