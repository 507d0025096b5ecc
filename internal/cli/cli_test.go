package cli

import (
	"flag"
	"testing"
	"time"
)

// parse registers the shared flags on a fresh FlagSet and parses args.
func parse(t *testing.T, args ...string) Common {
	t.Helper()
	var c Common
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEnvFallbacks(t *testing.T) {
	t.Setenv(WorkersEnv, "3")
	t.Setenv(CacheDirEnv, "/tmp/lw-cache")
	t.Setenv(VerboseEnv, "1")
	t.Setenv(FaultsEnv, "drop=10")
	t.Setenv(FaultSeedEnv, "42")

	c := parse(t)
	if c.Workers != 3 || c.CacheDir != "/tmp/lw-cache" || !c.Verbose ||
		c.FaultSpec != "drop=10" || c.FaultSeed != 42 {
		t.Fatalf("env defaults not honored: %+v", c)
	}
	plan, err := c.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Enabled() || plan.Seed != 42 {
		t.Fatalf("plan = %+v, want enabled with seed 42", plan)
	}
}

func TestFlagsOverrideEnv(t *testing.T) {
	t.Setenv(WorkersEnv, "3")
	t.Setenv(FaultSeedEnv, "42")

	c := parse(t, "-j", "5", "-fault-seed", "7", "-cache", "")
	if c.Workers != 5 || c.FaultSeed != 7 || c.CacheDir != "" {
		t.Fatalf("flags did not override env: %+v", c)
	}
	if c.BlobCache() != nil {
		t.Fatal("empty cache dir must disable the blob cache")
	}
}

func TestInvalidEnvFallsBack(t *testing.T) {
	t.Setenv(WorkersEnv, "not-a-number")
	t.Setenv(FaultSeedEnv, "zzz")

	c := parse(t)
	if c.Workers < 1 {
		t.Fatalf("workers = %d, want the GOMAXPROCS default", c.Workers)
	}
	if c.FaultSeed != 1 {
		t.Fatalf("fault seed = %d, want the default 1", c.FaultSeed)
	}
}

func TestProgressNilUnlessVerbose(t *testing.T) {
	c := parse(t)
	if c.Progress() != nil {
		t.Fatal("progress callback without -v")
	}
	c = parse(t, "-v")
	if c.Progress() == nil {
		t.Fatal("no progress callback with -v")
	}
	if r := c.NewRunner(); r == nil {
		t.Fatal("NewRunner returned nil")
	}
	if p := c.NewPool(); p.Size() != c.Workers {
		t.Fatalf("pool size %d, want %d", p.Size(), c.Workers)
	}
}

func TestSessionFlags(t *testing.T) {
	parseSessions := func(args ...string) Sessions {
		t.Helper()
		var s Sessions
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		s.Register(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Defaults: sessions off, no cadence, no ticker.
	s := parseSessions()
	if s.Dir != "" || s.SnapshotEvery != 0 || s.SnapshotInterval != 0 {
		t.Fatalf("zero defaults not honored: %+v", s)
	}

	// Env supplies defaults.
	t.Setenv(SessionDirEnv, "/tmp/lw-sessions")
	t.Setenv(SnapshotEveryEnv, "50000")
	t.Setenv(SnapshotIntervalEnv, "45s")
	s = parseSessions()
	if s.Dir != "/tmp/lw-sessions" || s.SnapshotEvery != 50000 || s.SnapshotInterval != 45*time.Second {
		t.Fatalf("env defaults not honored: %+v", s)
	}

	// Flags override env.
	s = parseSessions("-session-dir", "/elsewhere", "-snapshot-every", "100", "-snapshot-interval", "2m")
	if s.Dir != "/elsewhere" || s.SnapshotEvery != 100 || s.SnapshotInterval != 2*time.Minute {
		t.Fatalf("flags did not override env: %+v", s)
	}

	// Garbage env values fall back to the zero defaults.
	t.Setenv(SnapshotEveryEnv, "many")
	t.Setenv(SnapshotIntervalEnv, "-5s")
	s = parseSessions()
	if s.SnapshotEvery != 0 || s.SnapshotInterval != 0 {
		t.Fatalf("invalid env should fall back: %+v", s)
	}
}

func TestLoggingFlags(t *testing.T) {
	// Defaults: info level, text format.
	c := parse(t)
	if c.LogLevel != "info" || c.LogFormat != "text" {
		t.Fatalf("log defaults: %+v", c)
	}
	if _, err := c.Logger(); err != nil {
		t.Fatal(err)
	}

	// Env supplies defaults, flags override env.
	t.Setenv(LogLevelEnv, "debug")
	t.Setenv(LogFormatEnv, "json")
	c = parse(t)
	if c.LogLevel != "debug" || c.LogFormat != "json" {
		t.Fatalf("log env defaults not honored: %+v", c)
	}
	c = parse(t, "-log-level", "warn", "-log-format", "text")
	if c.LogLevel != "warn" || c.LogFormat != "text" {
		t.Fatalf("log flags did not override env: %+v", c)
	}

	// An invalid value surfaces when the logger is built, not at parse time.
	c = parse(t, "-log-level", "shouty")
	if _, err := c.Logger(); err == nil {
		t.Fatal("invalid -log-level should error from Logger()")
	}
}
