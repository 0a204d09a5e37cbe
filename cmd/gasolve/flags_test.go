package main

import (
	"strings"
	"testing"
	"time"
)

// goodFlags is a baseline that must validate cleanly; each table case
// perturbs one field.
func goodFlags() cliFlags {
	return cliFlags{
		walltime: 0, drainGrace: 10 * time.Second, cacheMemMB: 0,
		samples: 784, tradFactor: 10,
		l: 4, t: 8, ls: 6, configs: 3, batch: 0,
		workers: 0,
	}
}

func TestFlagValidationSweep(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*cliFlags)
		ok      bool
		mention string
	}{
		{"baseline", func(f *cliFlags) {}, true, ""},
		{"negative walltime", func(f *cliFlags) { f.walltime = -time.Second }, false, "-walltime"},
		{"zero walltime unbounded", func(f *cliFlags) { f.walltime = 0 }, true, ""},
		{"walltime with journal", func(f *cliFlags) { f.walltime = time.Minute; f.journal = "j.fwal" }, true, ""},
		{"walltime without journal", func(f *cliFlags) { f.walltime = time.Minute }, false, "-journal"},
		{"zero drain grace", func(f *cliFlags) { f.drainGrace = 0 }, false, "-drain-grace"},
		{"negative drain grace", func(f *cliFlags) { f.drainGrace = -time.Second }, false, "-drain-grace"},
		{"negative cache mem", func(f *cliFlags) { f.cacheMemMB = -1 }, false, "-cache-mem"},
		{"zero samples", func(f *cliFlags) { f.samples = 0 }, false, "-samples"},
		{"zero configs", func(f *cliFlags) { f.configs = 0 }, false, "-configs"},
		{"negative batch", func(f *cliFlags) { f.batch = -1 }, false, "-batch"},
		{"negative workers", func(f *cliFlags) { f.workers = -2 }, false, "-workers"},
		{"batch with journal", func(f *cliFlags) { f.batch = 2; f.journal = "j.fwal" }, true, ""},
		{"batch without journal", func(f *cliFlags) { f.batch = 2 }, false, "-journal"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := goodFlags()
			c.mutate(&f)
			err := f.validate()
			if (err == nil) != c.ok {
				t.Fatalf("validate() = %v, want ok=%v", err, c.ok)
			}
			if err != nil && c.mention != "" && !strings.Contains(err.Error(), c.mention) {
				t.Fatalf("error %q does not mention %q", err, c.mention)
			}
		})
	}
}

func TestFlagValidationReportsEveryViolation(t *testing.T) {
	f := goodFlags()
	f.walltime = -time.Second
	f.drainGrace = 0
	f.cacheMemMB = -5
	err := f.validate()
	if err == nil {
		t.Fatal("expected errors")
	}
	for _, want := range []string{"-walltime", "-drain-grace", "-cache-mem"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
}
