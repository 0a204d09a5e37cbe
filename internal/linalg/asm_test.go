package linalg

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// asmInst is one instruction of an assembly body after macro expansion.
type asmInst struct{ op, args string }

// asmMacro is a #define; params is nil for an object-like macro.
type asmMacro struct {
	params []string
	body   string
}

// expandAsm runs the part of the Go assembler's preprocessor the tree's
// .s files use - #define with and without parameters, backslash
// continuations, #undef - and returns each TEXT symbol's instructions in
// order. DATA and GLOBL end a body; labels are dropped.
func expandAsm(t *testing.T, src string) map[string][]asmInst {
	t.Helper()
	macros := map[string]asmMacro{}
	bodies := map[string][]asmInst{}
	cur := ""
	for _, line := range strings.Split(strings.ReplaceAll(src, "\\\n", " "), "\n") {
		line, _, _ = strings.Cut(line, "//")
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "#define"):
			def := strings.TrimSpace(strings.TrimPrefix(line, "#define"))
			end := strings.IndexAny(def+" ", " \t(")
			name, m := def[:end], asmMacro{body: def[end:]}
			if strings.HasPrefix(m.body, "(") {
				ps, body, ok := strings.Cut(m.body[1:], ")")
				if !ok {
					t.Fatalf("unterminated parameter list: %s", line)
				}
				m.params, m.body = strings.Split(ps, ","), body
				for i := range m.params {
					m.params[i] = strings.TrimSpace(m.params[i])
				}
			}
			macros[name] = m
			continue
		case strings.HasPrefix(line, "#undef"):
			delete(macros, strings.TrimSpace(strings.TrimPrefix(line, "#undef")))
			continue
		case strings.HasPrefix(line, "#"):
			continue
		}
		for _, stmt := range strings.Split(expandMacros(t, line, macros, 0), ";") {
			op, args, _ := strings.Cut(strings.TrimSpace(stmt), " ")
			switch {
			case op == "" || strings.HasSuffix(op, ":"):
			case op == "TEXT":
				name, _, _ := strings.Cut(args, "(")
				cur = strings.TrimPrefix(strings.TrimSpace(name), "·")
			case op == "DATA" || op == "GLOBL":
				cur = ""
			case cur != "":
				bodies[cur] = append(bodies[cur], asmInst{op, strings.TrimSpace(args)})
			}
		}
	}
	return bodies
}

func isIdentByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// wordAt returns the end of the identifier or number starting at s[i].
func wordAt(s string, i int) int {
	for i < len(s) && isIdentByte(s[i]) {
		i++
	}
	return i
}

// callArgs splits the argument list opening at s[k] == '(' and returns
// the arguments and the index past its closing parenthesis.
func callArgs(t *testing.T, s string, k int) ([]string, int) {
	t.Helper()
	var args []string
	level, start := 0, k+1
	for k++; k < len(s); k++ {
		switch s[k] {
		case '(':
			level++
		case ')':
			if level > 0 {
				level--
				continue
			}
			return append(args, strings.TrimSpace(s[start:k])), k + 1
		case ',':
			if level == 0 {
				args = append(args, strings.TrimSpace(s[start:k]))
				start = k + 1
			}
		}
	}
	t.Fatalf("unterminated argument list: %s", s)
	return nil, 0
}

// expandMacros substitutes the macros in s, and in what they expand to,
// until none is left.
func expandMacros(t *testing.T, s string, macros map[string]asmMacro, depth int) string {
	t.Helper()
	if depth > 32 {
		t.Fatalf("macro expansion does not terminate: %s", s)
	}
	var out strings.Builder
	for i := 0; i < len(s); {
		if !isIdentByte(s[i]) {
			out.WriteByte(s[i])
			i++
			continue
		}
		j := wordAt(s, i)
		word := s[i:j]
		m, ok := macros[word]
		k := j
		for k < len(s) && s[k] == ' ' {
			k++
		}
		if !ok || s[i] <= '9' || m.params != nil && (k == len(s) || s[k] != '(') {
			out.WriteString(word) // not a macro, a number, or a macro's name uncalled
			i = j
			continue
		}
		body := m.body
		if m.params != nil {
			var args []string
			args, j = callArgs(t, s, k)
			if len(args) != len(m.params) {
				t.Fatalf("%s takes %d arguments, called with %d: %s", word, len(m.params), len(args), s)
			}
			var sub strings.Builder
			for b := 0; b < len(body); {
				if !isIdentByte(body[b]) {
					sub.WriteByte(body[b])
					b++
					continue
				}
				e := wordAt(body, b)
				w := body[b:e]
				for p, name := range m.params {
					if w == name {
						w = args[p]
						break
					}
				}
				sub.WriteString(w)
				b = e
			}
			body = sub.String()
		}
		out.WriteString(expandMacros(t, body, macros, depth+1))
		i = j
	}
	return out.String()
}

var (
	vecReg = regexp.MustCompile(`\b[XY]([0-9]|1[0-5])\b`)
	ymmReg = regexp.MustCompile(`\bY([0-9]|1[0-5])\b`)
	fma    = regexp.MustCompile(`\bVF(N)?M(ADD|SUB)`)
)

// TestAssemblyDiscipline reads every .s file of the module and holds its
// bodies to the rules the bit pins and the speed of the AVX bodies rest
// on. No file contains a fused multiply-add, which rounds once where the
// Go bodies round twice. No body uses a legacy SSE instruction on a vector
// register: after a write to a YMM register one costs a state transition
// of some 500 cycles. And a body that names a Y register issues VZEROUPPER
// before every RET, so that the legacy SSE code the caller runs next - Go's
// own float code at GOAMD64=v1 - does not pay it either.
func TestAssemblyDiscipline(t *testing.T) {
	ymmBodies := map[string]bool{}
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "../.." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".s") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if m := fma.FindString(string(b)); m != "" {
			t.Errorf("%s: fused multiply-add %s", path, m)
		}
		for name, body := range expandAsm(t, string(b)) {
			ymm := false
			for _, in := range body {
				ymm = ymm || ymmReg.MatchString(in.args)
				if fma.MatchString(in.op) {
					t.Errorf("%s: %s: fused multiply-add %s %s", path, name, in.op, in.args)
				}
			}
			if ymm {
				ymmBodies[name] = true
			}
			for i, in := range body {
				if !strings.HasPrefix(in.op, "V") && vecReg.MatchString(in.args) {
					t.Errorf("%s: %s: legacy SSE instruction %s %s", path, name, in.op, in.args)
				}
				if ymm && in.op == "RET" && (i == 0 || body[i-1].op != "VZEROUPPER") {
					t.Errorf("%s: %s: RET without VZEROUPPER before it", path, name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The rules must have something to hold: the expansion has to see the
	// Y registers the AVX bodies name through their macros.
	for _, name := range []string{
		"hopAVX64", "aInvAVX64", "baAVX64", "baxpyAVX64", "loadAVX64", "storeAVX64",
		"hopAVX32x2", "aInvAVX32x2", "baAVX32x2", "baxpyAVX32x2", "loadAVX32x2", "storeAVX32x2",
		"siteAVX", "halfRoundTripAVX",
		"axpyC64AVX", "xpayC64AVX", "dotC64AVX", "normSqC64AVX", "axpyNormSqC64AVX"} {
		if !ymmBodies[name] {
			t.Errorf("%s was not read as a body that names a Y register (bodies that do: %v)", name, ymmBodies)
		}
	}
}
