package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The vecasm gate closes the last gap between the source-level rules and the
// silicon: hotalloc and the escape gate prove the hot loops do not touch the
// heap, but nothing before this gate verified what the compiler actually
// *emits* for them. MD-Bench (PAPERS.md arXiv:2302.14660) shows in-core MD
// throughput lives or dies on the instruction mix of the cutoff loop, and
// ROADMAP item 1 makes "verified via -gcflags=-S" a precondition for the
// cluster-pair kernel work. `mwlint -vecasm` compiles the kernel packages
// under GOAMD64=v3, parses the assembly listing of every //mw:hotpath
// function, classifies the instructions (scalar FP arithmetic, packed
// SSE/AVX moves and arithmetic, FMA, calls), and gates on two layers:
//
//   - hard kernel invariants, configured in code so a baseline update cannot
//     weaken them: the forces.LJ half-list kernels must emit packed FP moves
//     and a healthy scalar-FP core, and must have zero CALL runtime.*
//     instructions attributed to hot-loop lines (a runtime call in the pair
//     loop means a bounds check, a heap operation, or a de-intrinsified
//     math call — all regressions);
//   - a relative drift check (default ±25% per instruction class, never
//     tighter than ±2 instructions) of the per-function instruction mix
//     against the checked-in vecasm.baseline, so an inlining or codegen
//     regression that reshapes a kernel fails CI even when the hard
//     invariants still hold.
//
// Like the escape gate, `-update` regenerates the baseline after a
// deliberate, understood change.

// VecasmGate configures one gate run.
type VecasmGate struct {
	ModuleRoot string
	Patterns   []string // packages compiled and parsed
	Baseline   string   // checked-in per-function instruction-mix baseline
	Tolerance  float64  // relative drift allowed per instruction class
	Kernels    []KernelRule
}

// KernelRule is a hard per-function invariant, matched by symbol name.
type KernelRule struct {
	Match     *regexp.Regexp
	MinScalar int  // at least this many scalar FP arithmetic instructions
	MinPacked int  // at least this many packed (SSE/AVX) instructions
	NoRTLoop  bool // zero CALL runtime.* attributed to hot-loop lines
}

// DefaultVecasmGate gates the kernel surface: the force kernels and the cell
// traversals they inline.
func DefaultVecasmGate(moduleRoot string) *VecasmGate {
	return &VecasmGate{
		ModuleRoot: moduleRoot,
		Patterns:   []string{"./internal/forces", "./internal/cells"},
		Baseline:   filepath.Join(moduleRoot, "internal", "analysis", "testdata", "vecasm.baseline"),
		Tolerance:  0.25,
		Kernels: []KernelRule{
			// The half-list LJ ladder (ROADMAP item 1): packed moves carry the
			// Vec3 loads/stores, the scalar-FP core is the pair arithmetic, and
			// the pair loop must be free of runtime calls — the bounds checks
			// were engineered out, and this rule keeps them out.
			{
				Match:     regexp.MustCompile(`forces\.\(\*LJ\)\.AccumulateRange`),
				MinScalar: 8,
				MinPacked: 1,
				NoRTLoop:  true,
			},
			// The cluster-pair ladder: the Go kernels share the half-list
			// scalar/packed profile; the hand-written packed kernel must stay
			// genuinely packed (its 4-lane row body plus the i-force
			// horizontal sums) and call-free.
			{
				Match:     regexp.MustCompile(`forces\.\(\*LJ\)\.AccumulateClusterList$`),
				MinScalar: 8,
				MinPacked: 1,
				NoRTLoop:  true,
			},
			{
				Match:     regexp.MustCompile(`forces\.\(\*LJ\)\.AccumulateClusterListFast`),
				MinScalar: 8,
				NoRTLoop:  true,
			},
			{
				Match:     regexp.MustCompile(`forces\.ljClusterAVX2`),
				MinPacked: 40,
				NoRTLoop:  true,
			},
		},
	}
}

// AsmFunc is the parsed assembly listing of one function symbol.
type AsmFunc struct {
	Sym    string // e.g. mw/internal/forces.(*LJ).AccumulateRangeListFast
	File   string // file of the TEXT line (decl position)
	Line   int
	Mix    InstrMix
	RTLoop []RuntimeCall // CALL runtime.* at hot-loop lines
}

// InstrMix is the per-class instruction census the baseline records.
type InstrMix struct {
	Scalar int // scalar FP arithmetic (ADDSD, MULSD, SQRTSD, ROUNDSD, ...)
	Packed int // packed SSE/AVX moves + arithmetic (MOVUPS, ADDPD, ...)
	FMA    int // fused multiply-add (VFMADD*, VFMSUB*, ...)
	Call   int // CALL instructions (runtime.morestack excluded)
	RTLoop int // CALL runtime.* attributed to a hot-loop line
}

func (m InstrMix) String() string {
	return fmt.Sprintf("scalar=%d packed=%d fma=%d call=%d rtloop=%d",
		m.Scalar, m.Packed, m.FMA, m.Call, m.RTLoop)
}

// RuntimeCall is one runtime call attributed to a hot-loop source line.
type RuntimeCall struct {
	Target string
	File   string
	Line   int
}

var (
	stextRE = regexp.MustCompile(`^(\S+) STEXT`)
	instrRE = regexp.MustCompile(`^\t0x[0-9a-f]+ \d+ \(([^)]*)\)\t([A-Z][A-Z0-9]*)\t?(.*)$`)

	scalarFPRE = regexp.MustCompile(`^V?(ADD|SUB|MUL|DIV|SQRT|MIN|MAX|ROUND)S[SD]$`)
	packedRE   = regexp.MustCompile(`^V?(MOV[UA]|ADD|SUB|MUL|DIV|SQRT|MIN|MAX|AND|ANDN|OR|SHUF|UNPCK[LH]|HADD)P[SD]$`)
	fmaRE      = regexp.MustCompile(`^VFN?M(ADD|SUB)(132|213|231)?[SP][SD]$`)
)

// ParseVecasm parses `go build -gcflags=-S` output into per-symbol listings,
// attributing ownership and hot-loop membership through the index. Only
// functions whose declaration position resolves to a //mw:hotpath function
// are returned; autogenerated wrappers and cold functions are dropped.
func ParseVecasm(out string, ix *HotIndex) []*AsmFunc {
	var funcs []*AsmFunc
	var cur *AsmFunc
	var curHot *HotFunc
	flush := func() {
		if cur != nil && curHot != nil {
			funcs = append(funcs, cur)
		}
		cur, curHot = nil, nil
	}
	for _, line := range strings.Split(out, "\n") {
		if m := stextRE.FindStringSubmatch(line); m != nil {
			flush()
			cur = &AsmFunc{Sym: m[1]}
			continue
		}
		if cur == nil {
			continue
		}
		m := instrRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		file, ln := splitFileLine(m[1])
		op, args := m[2], m[3]
		if cur.File == "" && file != "" {
			// The TEXT line carries the declaration position: resolve the
			// owning hot function once per block.
			cur.File, cur.Line = file, ln
			hf, ok := ix.FuncAt(file, ln)
			if !ok {
				cur = nil // not a hot function; skip the rest of the block
				continue
			}
			curHot = hf
		}
		switch {
		case op == "CALL":
			target := strings.TrimSuffix(args, "(SB)")
			if i := strings.IndexByte(target, '\t'); i >= 0 {
				target = target[:i]
			}
			if strings.HasPrefix(target, "runtime.morestack") {
				continue
			}
			cur.Mix.Call++
			if strings.HasPrefix(target, "runtime.") && inHotLoop(ix, file, ln) {
				cur.Mix.RTLoop++
				cur.RTLoop = append(cur.RTLoop, RuntimeCall{Target: target, File: file, Line: ln})
			}
		case fmaRE.MatchString(op):
			cur.Mix.FMA++
		case scalarFPRE.MatchString(op):
			cur.Mix.Scalar++
		case packedRE.MatchString(op):
			cur.Mix.Packed++
		}
	}
	flush()
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Sym < funcs[j].Sym })
	return funcs
}

var asmTextRE = regexp.MustCompile(`^TEXT\s+·([A-Za-z_][A-Za-z0-9_]*)\(SB\)`)

// ParseAsmSources censuses hand-written Plan 9 assembly: every *_amd64.s
// file under the gated package directories contributes one AsmFunc per
// `TEXT ·name(SB)` block, classified with the same instruction regexes as
// the compiler listing. The compiler's -S output is empty for a body-less
// Go stub, so without this pass a hand-written kernel would be invisible to
// the gate — its packed-FP floor and the no-CALL invariant could silently
// rot. Macro bodies (`\`-continued #define lines) are counted once at their
// definition; the census is a static property of the source, not a dynamic
// instruction count.
func ParseAsmSources(moduleRoot string, patterns []string) ([]*AsmFunc, error) {
	mod, err := modulePath(moduleRoot)
	if err != nil {
		return nil, err
	}
	var funcs []*AsmFunc
	for _, pat := range patterns {
		rel := strings.TrimPrefix(pat, "./")
		files, err := filepath.Glob(filepath.Join(moduleRoot, rel, "*_amd64.s"))
		if err != nil {
			return nil, err
		}
		sort.Strings(files)
		for _, path := range files {
			raw, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			data := string(raw)
			var cur *AsmFunc
			for ln, line := range strings.Split(data, "\n") {
				line = strings.TrimSuffix(strings.TrimSpace(line), "\\")
				line = strings.TrimSpace(line)
				if m := asmTextRE.FindStringSubmatch(line); m != nil {
					cur = &AsmFunc{
						Sym:  mod + "/" + rel + "." + m[1],
						File: path,
						Line: ln + 1,
					}
					funcs = append(funcs, cur)
					continue
				}
				if cur == nil || line == "" || strings.HasPrefix(line, "//") ||
					strings.HasPrefix(line, "#") || strings.HasPrefix(line, "DATA") ||
					strings.HasPrefix(line, "GLOBL") {
					continue
				}
				op := line
				if i := strings.IndexAny(op, " \t"); i >= 0 {
					op = op[:i]
				}
				switch {
				case op == "CALL":
					// Any call inside a hand-written kernel is a hot-loop
					// call: these functions exist only as kernel bodies.
					cur.Mix.Call++
					cur.Mix.RTLoop++
					cur.RTLoop = append(cur.RTLoop, RuntimeCall{Target: line, File: path, Line: ln + 1})
				case fmaRE.MatchString(op):
					cur.Mix.FMA++
				case scalarFPRE.MatchString(op):
					cur.Mix.Scalar++
				case packedRE.MatchString(op):
					cur.Mix.Packed++
				}
			}
		}
	}
	return funcs, nil
}

// modulePath reads the module directive from moduleRoot's go.mod.
func modulePath(moduleRoot string) (string, error) {
	data, err := os.ReadFile(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module directive", moduleRoot)
}

// inHotLoop reports whether a source position is hot-loop code: inside a
// loop of an annotated function, or anywhere inside a loop-free annotated
// function (leaf helpers like RangeList.Of or Vec3 arithmetic exist only to
// be inlined into hot loops, so all of their code is loop code).
func inHotLoop(ix *HotIndex, file string, line int) bool {
	hf, ok := ix.FuncAt(file, line)
	if !ok {
		return false
	}
	if len(hf.Loops) == 0 {
		return true
	}
	return hf.InLoop(line)
}

// splitFileLine parses the "(/path/file.go:123)" position of an -S line;
// "<unknown line number>" and "<autogenerated>" yield an empty file.
func splitFileLine(pos string) (string, int) {
	i := strings.LastIndexByte(pos, ':')
	if i < 0 || strings.HasPrefix(pos, "<") {
		return "", 0
	}
	ln, err := strconv.Atoi(pos[i+1:])
	if err != nil {
		return "", 0
	}
	return pos[:i], ln
}

// VecasmReport is the outcome of a gate run.
type VecasmReport struct {
	Funcs    []*AsmFunc
	Failures []string // hard-rule violations and out-of-tolerance drift
	Stale    []string // baseline symbols no longer present
}

// Failed reports whether the run violated a rule or drifted past tolerance.
func (r *VecasmReport) Failed() bool { return len(r.Failures) > 0 }

// Check compiles the gated packages, parses the listing and applies the
// kernel invariants plus the baseline drift check. With update=true the
// baseline is rewritten and only hard kernel rules can fail.
func (g *VecasmGate) Check(update bool) (*VecasmReport, error) {
	ix, err := BuildHotIndex(g.ModuleRoot, g.Patterns...)
	if err != nil {
		return nil, err
	}
	out, err := CompilerOutput(g.ModuleRoot, "-S", g.Patterns...)
	if err != nil {
		return nil, err
	}
	funcs := ParseVecasm(out, ix)
	// Hand-written kernels never appear in the compiler listing (their Go
	// stubs are body-less); census their .s sources into the same report.
	asmFuncs, err := ParseAsmSources(g.ModuleRoot, g.Patterns)
	if err != nil {
		return nil, err
	}
	funcs = append(funcs, asmFuncs...)
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Sym < funcs[j].Sym })
	rep := &VecasmReport{Funcs: funcs}

	// Hard kernel invariants first: independent of the baseline.
	for _, f := range rep.Funcs {
		for _, k := range g.Kernels {
			if !k.Match.MatchString(f.Sym) {
				continue
			}
			if f.Mix.Scalar < k.MinScalar {
				rep.Failures = append(rep.Failures, fmt.Sprintf(
					"%s: scalar FP count %d below kernel minimum %d", f.Sym, f.Mix.Scalar, k.MinScalar))
			}
			if f.Mix.Packed < k.MinPacked {
				rep.Failures = append(rep.Failures, fmt.Sprintf(
					"%s: packed SSE/AVX count %d below kernel minimum %d", f.Sym, f.Mix.Packed, k.MinPacked))
			}
			if k.NoRTLoop && f.Mix.RTLoop > 0 {
				for _, c := range f.RTLoop {
					rep.Failures = append(rep.Failures, fmt.Sprintf(
						"%s: CALL %s in hot loop at %s:%d", f.Sym, c.Target, c.File, c.Line))
				}
			}
		}
	}

	if update {
		if rep.Failed() {
			return rep, nil // never bake a hard-rule violation into the baseline
		}
		return rep, g.writeBaseline(rep.Funcs)
	}

	base, err := g.readBaseline()
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, f := range rep.Funcs {
		seen[f.Sym] = true
		b, ok := base[f.Sym]
		if !ok {
			rep.Failures = append(rep.Failures, fmt.Sprintf(
				"%s: hot function not in vecasm baseline (run `mwlint -vecasm -update`)", f.Sym))
			continue
		}
		if f.Mix.RTLoop > b.RTLoop {
			rep.Failures = append(rep.Failures, fmt.Sprintf(
				"%s: %d runtime calls in hot loops (baseline %d)", f.Sym, f.Mix.RTLoop, b.RTLoop))
		}
		for _, d := range []struct {
			name      string
			got, want int
		}{
			{"scalar", f.Mix.Scalar, b.Scalar},
			{"packed", f.Mix.Packed, b.Packed},
			{"fma", f.Mix.FMA, b.FMA},
			{"call", f.Mix.Call, b.Call},
		} {
			if drifted(d.got, d.want, g.Tolerance) {
				rep.Failures = append(rep.Failures, fmt.Sprintf(
					"%s: %s count %d drifted past ±%.0f%% of baseline %d",
					f.Sym, d.name, d.got, g.Tolerance*100, d.want))
			}
		}
	}
	for sym := range base {
		if !seen[sym] {
			rep.Stale = append(rep.Stale, sym)
		}
	}
	sort.Strings(rep.Failures)
	sort.Strings(rep.Stale)
	return rep, nil
}

// drifted reports whether got differs from want by more than the relative
// tolerance tol (a fraction of want); small counts get an absolute slack of
// 2 so ±25% of a count of 4 does not trip on ±1.
func drifted(got, want int, tol float64) bool {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	slack := int(tol * float64(want))
	if slack < 2 {
		slack = 2
	}
	return diff > slack
}

var vecasmEntryRE = regexp.MustCompile(
	`^(\S+): scalar=(\d+) packed=(\d+) fma=(\d+) call=(\d+) rtloop=(\d+)$`)

func (g *VecasmGate) readBaseline() (map[string]InstrMix, error) {
	lines, err := readBaselineLines(g.Baseline, "mwlint -vecasm -update")
	if err != nil {
		return nil, err
	}
	base := map[string]InstrMix{}
	for _, line := range lines {
		m := vecasmEntryRE.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("vecasm baseline: malformed entry %q", line)
		}
		atoi := func(s string) int { n, _ := strconv.Atoi(s); return n }
		base[m[1]] = InstrMix{
			Scalar: atoi(m[2]), Packed: atoi(m[3]), FMA: atoi(m[4]),
			Call: atoi(m[5]), RTLoop: atoi(m[6]),
		}
	}
	return base, nil
}

func (g *VecasmGate) writeBaseline(funcs []*AsmFunc) error {
	entries := make([]string, 0, len(funcs))
	for _, f := range funcs {
		entries = append(entries, fmt.Sprintf("%s: %s", f.Sym, f.Mix))
	}
	return writeBaselineLines(g.Baseline, []string{
		"Instruction-mix baseline for //mw:hotpath functions, compiled with",
		"GOAMD64=" + CodegenAMD64Level + " (see internal/analysis/vecasm.go for the class definitions).",
		"Regenerate with `GOAMD64=v3 go run ./cmd/mwlint -vecasm -update` after a",
		"deliberate kernel or toolchain change; `mwlint -vecasm` fails CI on",
		"drift past tolerance, on new runtime calls in hot loops, and on the",
		"hard LJ-kernel invariants (packed ops present, pair loop call-free).",
	}, entries)
}

// ReportText renders the full per-function census — the artifact CI uploads
// so a baseline diff can be read without rerunning the compiler locally.
func (r *VecasmReport) ReportText() string {
	var b strings.Builder
	fmt.Fprintf(&b, "vecasm: %d hot functions (GOAMD64=%s)\n", len(r.Funcs), CodegenAMD64Level)
	for _, f := range r.Funcs {
		fmt.Fprintf(&b, "%s\n    %s:%d  %s\n", f.Sym, f.File, f.Line, f.Mix)
		for _, c := range f.RTLoop {
			fmt.Fprintf(&b, "    hot-loop call: %s at %s:%d\n", c.Target, c.File, c.Line)
		}
	}
	for _, s := range r.Stale {
		fmt.Fprintf(&b, "stale baseline entry: %s\n", s)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "FAIL: %s\n", f)
	}
	return b.String()
}
