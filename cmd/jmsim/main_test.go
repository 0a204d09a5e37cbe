package main

import (
	"strings"
	"testing"
)

// TestFlagValidation runs the command on flag sets it must refuse before
// it builds a workload or prints a line of the table - exit 2, nothing on
// stdout, the offending flag named on stderr - and on two it must run.
func TestFlagValidation(t *testing.T) {
	for _, c := range []struct {
		args    []string
		code    int
		mention []string
	}{
		{[]string{"-nodes", "8", "-solves", "6", "-contractions", "3"}, 0, nil},
		{[]string{"-nodes", "4", "-gpus", "2", "-jobgpus", "8", "-solves", "3", "-contractions", "0", "-spread", "1"}, 0, nil},
		{[]string{"-gpus", "0"}, 2, []string{"-gpus"}},
		{[]string{"-jobgpus", "3"}, 2, []string{"-jobgpus (3) must be a multiple of -gpus (4)"}},
		{[]string{"-jobgpus", "512"}, 2, []string{"-jobgpus (512) must be at most"}},
		{[]string{"-solves", "-1"}, 2, []string{"-solves"}},
		{[]string{"-solves", "0"}, 2, []string{"-solves"}},
		{[]string{"-nodes", "0"}, 2, []string{"-nodes"}},
		{[]string{"-contractions", "-1"}, 2, []string{"-contractions"}},
		{[]string{"-seconds", "0"}, 2, []string{"-seconds"}},
		{[]string{"-spread", "2"}, 2, []string{"-spread"}},
		{[]string{"-jobgpus", "0", "-seconds", "-1", "-spread", "-0.5"}, 2, []string{"-jobgpus", "-seconds", "-spread"}},
		{[]string{"-nodes", "many"}, 2, []string{"-nodes"}},
	} {
		var out, errb strings.Builder
		code := run(c.args, &out, &errb)
		if code != c.code {
			t.Fatalf("%v: exit %d, want %d (stderr %q)", c.args, code, c.code, errb.String())
		}
		if c.code == 0 {
			if !strings.Contains(out.String(), "mpi_jm") || errb.Len() != 0 {
				t.Fatalf("%v: stdout %q, stderr %q, want the table alone", c.args, out.String(), errb.String())
			}
			continue
		}
		if out.Len() != 0 {
			t.Fatalf("%v: refused, but printed %q", c.args, out.String())
		}
		for _, m := range c.mention {
			if !strings.Contains(errb.String(), m) {
				t.Fatalf("%v: stderr %q does not mention %q", c.args, errb.String(), m)
			}
		}
	}
}
