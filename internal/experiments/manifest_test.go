package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lightwsp/internal/baseline"
	"lightwsp/internal/compiler"
)

func TestRunManifestsRecorded(t *testing.T) {
	r := NewRunner()
	p := cheapProfile(t)
	if _, err := r.Run(p, baseline.Baseline(), compiler.Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(p, LightWSP(), compiler.Config{}); err != nil {
		t.Fatal(err)
	}
	mans := r.Manifests()
	if len(mans) != 2 {
		t.Fatalf("manifests = %d, want 2", len(mans))
	}
	var light *RunManifest
	for i := range mans {
		m := &mans[i]
		if m.Source != "fresh" {
			t.Errorf("%s/%s source = %q, want fresh", m.App, m.Scheme, m.Source)
		}
		if m.Cycles == 0 || len(m.KeyHash) != 64 || m.SchemaVersion != keySchemaVersion {
			t.Errorf("incomplete manifest: %+v", m)
		}
		if m.WallSeconds <= 0 {
			t.Errorf("wall time not recorded: %+v", m)
		}
		if m.Scheme == LightWSP().Name {
			light = m
		}
	}
	if light == nil {
		t.Fatal("no manifest for the lightwsp run")
	}
	// The instrumented run must have produced protocol events; its metrics
	// snapshot rides in the manifest.
	if light.Metrics.Events == 0 || light.Metrics.RegionsClosed == 0 || light.Metrics.Flushes == 0 {
		t.Fatalf("lightwsp manifest metrics empty: %+v", light.Metrics)
	}
	if light.Metrics.WPQOccupancy.Count != light.Metrics.Flushes {
		t.Fatalf("occupancy histogram count %d != flushes %d",
			light.Metrics.WPQOccupancy.Count, light.Metrics.Flushes)
	}
}

func TestDiskCacheCarriesManifest(t *testing.T) {
	dir := t.TempDir()
	p := cheapProfile(t)

	r1 := NewRunner()
	r1.SetStore(NewBlobCache(dir))
	if _, err := r1.Run(p, LightWSP(), compiler.Config{}); err != nil {
		t.Fatal(err)
	}
	fresh := r1.Manifests()[0]

	r2 := NewRunner()
	r2.SetStore(NewBlobCache(dir))
	if _, err := r2.Run(p, LightWSP(), compiler.Config{}); err != nil {
		t.Fatal(err)
	}
	if c := r2.Counters(); c.DiskHits != 1 {
		t.Fatalf("expected a disk hit, got %+v", c)
	}
	cached := r2.Manifests()[0]
	if cached.Source != "cached" {
		t.Fatalf("cached manifest source = %q", cached.Source)
	}
	// Identity, cycle count and metrics survive the round trip exactly.
	if cached.KeyHash != fresh.KeyHash || cached.Cycles != fresh.Cycles {
		t.Fatalf("cached manifest identity diverged:\n%+v\n%+v", cached, fresh)
	}
	if !reflect.DeepEqual(cached.Metrics, fresh.Metrics) {
		t.Fatal("cached manifest metrics diverged from the fresh run")
	}
}

func TestTimelineDirWritesPerRunTraces(t *testing.T) {
	dir := t.TempDir()
	r := NewRunner()
	r.SetTimelineDir(dir)
	if _, err := r.Run(cheapProfile(t), LightWSP(), compiler.Config{}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("trace files = %v (err %v), want 1", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("timeline has no events")
	}
}

func TestAggregateMetricsMergesRuns(t *testing.T) {
	r := NewRunner()
	p := cheapProfile(t)
	if err := r.Prefetch(slowdownSpecs(p, LightWSP(), compiler.Config{})); err != nil {
		t.Fatal(err)
	}
	mans := r.Manifests()
	agg := AggregateMetrics(mans)
	var events, flushes uint64
	for _, m := range mans {
		events += m.Metrics.Events
		flushes += m.Metrics.Flushes
	}
	if agg.Events != events || agg.Flushes != flushes {
		t.Fatalf("aggregate counters %d/%d, want %d/%d", agg.Events, agg.Flushes, events, flushes)
	}
}

// TestProgressTagsCachedAndFresh pins the progress-line provenance tag: a
// fresh simulation reports "fresh", a warm-start reports "cached", and the
// runner's counters agree.
func TestProgressTagsCachedAndFresh(t *testing.T) {
	dir := t.TempDir()
	p := cheapProfile(t)

	collect := func(r *Runner) *[]string {
		var lines []string
		r.SetProgress(func(s string) { lines = append(lines, s) })
		return &lines
	}

	r1 := NewRunner()
	r1.SetStore(NewBlobCache(dir))
	lines1 := collect(r1)
	if _, err := r1.Run(p, baseline.Baseline(), compiler.Config{}); err != nil {
		t.Fatal(err)
	}
	if len(*lines1) != 1 || !strings.HasPrefix((*lines1)[0], "fresh") {
		t.Fatalf("fresh progress lines = %q", *lines1)
	}

	r2 := NewRunner()
	r2.SetStore(NewBlobCache(dir))
	lines2 := collect(r2)
	if _, err := r2.Run(p, baseline.Baseline(), compiler.Config{}); err != nil {
		t.Fatal(err)
	}
	if len(*lines2) != 1 || !strings.HasPrefix((*lines2)[0], "cached") {
		t.Fatalf("cached progress lines = %q", *lines2)
	}
	if c := r2.Counters(); c.Fresh != 0 || c.DiskHits != 1 || c.MemHits != 0 {
		t.Fatalf("warm counters = %+v", c)
	}
	// A second Run on the same runner is a memo hit and emits no line.
	if _, err := r2.Run(p, baseline.Baseline(), compiler.Config{}); err != nil {
		t.Fatal(err)
	}
	if len(*lines2) != 1 {
		t.Fatalf("memo hit emitted a progress line: %q", *lines2)
	}
	if c := r2.Counters(); c.MemHits != 1 {
		t.Fatalf("counters after memo hit = %+v", c)
	}
}
