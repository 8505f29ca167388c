// Package workload implements the twelve Table-1 workloads as Mahler
// programs with deterministic generated inputs. Each does real
// (scaled-down) computation with the character the paper relies on:
// sed/egrep/yacc/gcc/compress/espresso/eqntott are integer programs
// with file I/O; lisp is deep recursion; fpppp/doduc/liv/tomcatv are
// floating-point intensive, with liv deliberately store-heavy (the
// write-buffer + FP overlap error source of §5.1) and tomcatv carrying
// a working set larger than the cache (the page-mapping sensitivity of
// §4.4).
package workload

import (
	m "systrace/internal/mahler"
	"systrace/internal/userland"
)

// Spec describes one workload.
type Spec struct {
	Name        string
	Description string // Table 1 description
	FP          bool
	Build       func() *m.Module
	Files       map[string][]byte
}

// All returns the Table-1 suite in the paper's order.
func All() []Spec {
	return []Spec{
		{"sed", "The UNIX stream editor run three times over the same input file", false, sedModule, map[string][]byte{"sed.in": textInput(17<<10, 11)}},
		{"egrep", "The UNIX pattern search program run three times over its input", false, egrepModule, map[string][]byte{"egrep.in": textInput(27<<10, 23)}},
		{"yacc", "The LR(1) parser-generator run on a grammar", false, yaccModule, map[string][]byte{"yacc.in": grammarInput(11 << 10)}},
		{"gcc", "The C compiler translating a preprocessed source file", false, gccModule, map[string][]byte{"gcc.in": sourceInput(17 << 10)}},
		{"compress", "Lempel-Ziv data compression: a file is compressed then uncompressed", false, compressModule, map[string][]byte{"compress.in": textInput(32<<10, 37), "compress.out": make([]byte, 64<<10)}},
		{"espresso", "Boolean function minimization on an input file", false, espressoModule, map[string][]byte{"espresso.in": cubeInput(30 << 10)}},
		{"lisp", "The 8-queens problem solved in LISP", false, lispModule, nil},
		{"eqntott", "Boolean equations converted to truth tables", false, eqntottModule, map[string][]byte{"eqntott.in": eqnInput(1390)}},
		{"fpppp", "Quantum chemistry analysis (Fortran)", true, fppppModule, nil},
		{"doduc", "Monte-Carlo simulation of a nuclear reactor component", true, doducModule, map[string][]byte{"doduc.in": textInput(8<<10, 53)}},
		{"liv", "The Livermore Loops benchmark", true, livModule, nil},
		{"tomcatv", "Vectorized mesh generation (Fortran)", true, tomcatvModule, nil},
	}
}

// ByName returns the named workload spec.
func ByName(name string) (Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// xorshift is the deterministic input generator.
type xorshift uint32

func (x *xorshift) next() uint32 {
	s := uint32(*x)
	s ^= s << 13
	s ^= s >> 17
	s ^= s << 5
	*x = xorshift(s)
	return s
}

// textInput builds printable pseudo-text of n bytes.
func textInput(n int, seed uint32) []byte {
	r := xorshift(seed)
	words := []string{"the", "cache", "trace", "kernel", "buffer", "page",
		"address", "epoxie", "miss", "tlb", "system", "abc", "hit", "disk"}
	out := make([]byte, 0, n)
	col := 0
	for len(out) < n {
		w := words[r.next()%uint32(len(words))]
		out = append(out, w...)
		col += len(w) + 1
		if col > 60 {
			out = append(out, '\n')
			col = 0
		} else {
			out = append(out, ' ')
		}
	}
	return out[:n]
}

// grammarInput emulates a yacc grammar: lines "N : M O | P ;".
func grammarInput(n int) []byte {
	r := xorshift(7)
	out := make([]byte, 0, n)
	for len(out) < n {
		lhs := byte('A' + r.next()%26)
		out = append(out, lhs, ' ', ':', ' ')
		for k := uint32(0); k <= r.next()%3; k++ {
			out = append(out, byte('A'+r.next()%26), ' ')
			if r.next()%4 == 0 {
				out = append(out, '|', ' ')
			}
		}
		out = append(out, ';', '\n')
	}
	return out[:n]
}

// sourceInput emulates a preprocessed C source: identifiers, numbers,
// punctuation.
func sourceInput(n int) []byte {
	r := xorshift(99)
	out := make([]byte, 0, n)
	toks := []string{"int", "x", "y", "tmp", "if", "(", ")", "{", "}",
		"=", "+", "*", ";", "return", "42", "17", "while", "<", "f"}
	for len(out) < n {
		out = append(out, toks[r.next()%uint32(len(toks))]...)
		if r.next()%8 == 0 {
			out = append(out, '\n')
		} else {
			out = append(out, ' ')
		}
	}
	return out[:n]
}

// cubeInput emulates espresso's PLA cubes: lines of 0/1/- plus output
// part.
func cubeInput(n int) []byte {
	r := xorshift(13)
	out := make([]byte, 0, n)
	for len(out) < n {
		for i := 0; i < 12; i++ {
			out = append(out, "01-"[r.next()%3])
		}
		out = append(out, ' ')
		for i := 0; i < 4; i++ {
			out = append(out, "01"[r.next()%2])
		}
		out = append(out, '\n')
	}
	return out[:n]
}

// eqnInput emulates eqntott's equations over variables a..j.
func eqnInput(n int) []byte {
	r := xorshift(31)
	out := make([]byte, 0, n)
	for len(out) < n {
		out = append(out, byte('a'+r.next()%10))
		switch r.next() % 3 {
		case 0:
			out = append(out, '&')
		case 1:
			out = append(out, '|')
		default:
			out = append(out, '^')
		}
		if r.next()%7 == 0 {
			out = append(out, ';')
		}
	}
	return out[:n]
}

// newModule starts a workload module with libc externs declared.
func newModule(name string) *m.Module {
	mod := m.NewModule(name)
	userland.DeclareLibc(mod)
	return mod
}
