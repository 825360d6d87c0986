package analyzers

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ProtoCheck verifies the wire protocol's enumerated constants are handled
// exhaustively at every annotated boundary, and that the frame-size
// constants stay mutually consistent.
//
// The defining package is any package declaring a named integer type called
// Opcode (and/or Status). ProtoCheck enumerates its constants — every
// Opcode-typed `Op*` constant with a nonzero value, every Status-typed
// `Status*` constant, every `Feat*`/`Version*` constant — and exports them
// as a package fact, so switches in dependent packages are checked against
// the same table.
//
// A switch opts into exhaustiveness checking with a marker comment on the
// line above it (or its own line):
//
//	//dytis:opswitch <set> [group=<name>]
//
// where <set> is one of:
//
//	requests  — every request opcode (all Op* minus //dytis:response-only)
//	responses — every opcode that may appear in a response (all Op*)
//	statuses  — every Status* constant
//
// Each marked switch must name every constant of its set in its case
// clauses; a `default:` clause does not count (that is the point — adding an
// opcode must force a decision at every boundary). Switches sharing a
// `group=<name>` are unioned first, for dispatch logic split across several
// switches (e.g. a v2-control dispatch plus a v1 execute switch).
//
// An opcode constant whose doc or line comment carries
// `//dytis:response-only` is excluded from the `requests` set.
//
// In the defining package, ProtoCheck additionally cross-checks the frame
// constants when present: AllFeatures is the OR of every Feat* bit,
// MaxVersion is the highest Version*, maxBody == MaxFrame - headerLen, and a
// maximal batch request / scan response still fits in maxBody.
var ProtoCheck = &Analyzer{
	Name: "protocheck",
	Doc:  "check exhaustive handling of wire-protocol opcode/status constants and frame-size consistency",
	Run:  runProtoCheck,
}

// protoFacts is the fact blob a defining package exports, JSON-encoded.
type protoFacts struct {
	// Opcodes maps each request/response opcode constant name to its value
	// (OpInvalid/zero excluded).
	Opcodes map[string]uint64 `json:"opcodes,omitempty"`
	// ResponseOnly lists opcode names that never appear in requests.
	ResponseOnly []string `json:"response_only,omitempty"`
	// Statuses maps each status constant name to its value.
	Statuses map[string]uint64 `json:"statuses,omitempty"`
}

const (
	opswitchMarker     = "dytis:opswitch"
	responseOnlyMarker = "dytis:response-only"
)

func runProtoCheck(pass *Pass) error {
	local := gatherProtoFacts(pass)
	if local != nil {
		if blob, err := json.Marshal(local); err == nil {
			pass.writeFacts(blob)
		}
		checkProtoValues(pass)
	}

	// factsFor resolves the fact table governing a switch tag's named type.
	factsFor := func(named *types.Named) *protoFacts {
		pkg := named.Obj().Pkg()
		if pkg == nil {
			return nil
		}
		if pkg == pass.Pkg {
			return local
		}
		blob := pass.readFacts(pkg.Path())
		if blob == nil {
			return nil
		}
		var f protoFacts
		if json.Unmarshal(blob, &f) != nil {
			return nil
		}
		return &f
	}

	// One coverage accumulator per (defining package, set, group); ungrouped
	// switches get a unique key so they must each be exhaustive alone.
	type groupKey struct {
		pkg, set, group string
	}
	type coverage struct {
		facts   *protoFacts
		set     string
		covered map[string]bool
		pos     token.Pos // first switch of the group, where misses report
	}
	groups := map[groupKey]*coverage{}
	var order []groupKey

	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		markers := opswitchMarkers(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok {
				return true
			}
			line := pass.Fset.Position(sw.Pos()).Line
			m := markers[line-1]
			if m == nil {
				m = markers[line]
			}
			if m == nil {
				return true
			}
			m.used = true
			if sw.Tag == nil {
				pass.Reportf(sw.Pos(), "dytis:opswitch on a switch without a tag expression")
				return true
			}
			tv, ok := pass.TypesInfo.Types[sw.Tag]
			if !ok {
				return true
			}
			named, _ := tv.Type.(*types.Named)
			if named == nil {
				pass.Reportf(sw.Pos(), "dytis:opswitch on a switch over %s, not a protocol Opcode/Status type", tv.Type)
				return true
			}
			typeName := named.Obj().Name()
			wantType := "Opcode"
			if m.set == "statuses" {
				wantType = "Status"
			}
			if typeName != wantType {
				pass.Reportf(sw.Pos(), "dytis:opswitch %s: switch tag type %s is not %s", m.set, typeName, wantType)
				return true
			}
			facts := factsFor(named)
			if facts == nil {
				pass.Reportf(sw.Pos(), "no protocol facts for package %s (is protocheck running over it?)", named.Obj().Pkg().Path())
				return true
			}
			key := groupKey{pkg: named.Obj().Pkg().Path(), set: m.set, group: m.group}
			if m.group == "" {
				key.group = fmt.Sprintf("@%d", sw.Pos()) // unique: standalone switch
			}
			cov := groups[key]
			if cov == nil {
				cov = &coverage{facts: facts, set: m.set, covered: map[string]bool{}, pos: sw.Pos()}
				groups[key] = cov
				order = append(order, key)
			}
			for _, stmt := range sw.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, e := range cc.List {
					if name := constName(pass, e); name != "" {
						cov.covered[name] = true
					}
				}
			}
			return true
		})
		for _, m := range markers {
			if !m.used {
				pass.Reportf(m.pos, "dytis:opswitch marker is not attached to a switch statement")
			}
		}
	}

	sort.Slice(order, func(i, j int) bool {
		return groups[order[i]].pos < groups[order[j]].pos
	})
	for _, key := range order {
		cov := groups[key]
		for _, name := range requiredNames(cov.facts, cov.set) {
			if !cov.covered[name] {
				pass.Reportf(cov.pos, "protocol switch (%s) does not handle %s", cov.set, name)
			}
		}
	}
	return nil
}

// requiredNames returns the sorted constant names a switch of the given set
// must handle.
func requiredNames(f *protoFacts, set string) []string {
	var names []string
	switch set {
	case "requests":
		respOnly := map[string]bool{}
		for _, n := range f.ResponseOnly {
			respOnly[n] = true
		}
		for n := range f.Opcodes {
			if !respOnly[n] {
				names = append(names, n)
			}
		}
	case "responses":
		for n := range f.Opcodes {
			names = append(names, n)
		}
	case "statuses":
		for n := range f.Statuses {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// opswitch holds one parsed //dytis:opswitch marker.
type opswitch struct {
	set   string
	group string
	pos   token.Pos
	used  bool
}

// opswitchMarkers parses the file's //dytis:opswitch comments, keyed by line.
func opswitchMarkers(pass *Pass, f *ast.File) map[int]*opswitch {
	markers := map[int]*opswitch{}
	for _, cg := range f.Comments {
		for _, cm := range cg.List {
			rest, ok := cutComment(cm.Text, opswitchMarker)
			if !ok {
				continue
			}
			fields := strings.Fields(stripInlineComment(rest))
			m := &opswitch{pos: cm.Pos(), used: true} // parse errors report once, here
			if len(fields) >= 1 {
				m.set = fields[0]
			}
			switch m.set {
			case "requests", "responses", "statuses":
			default:
				pass.Reportf(cm.Pos(), "dytis:opswitch: unknown set %q (want requests|responses|statuses)", m.set)
				continue
			}
			bad := false
			for _, opt := range fields[1:] {
				if g, ok := strings.CutPrefix(opt, "group="); ok && g != "" {
					m.group = g
				} else {
					pass.Reportf(cm.Pos(), "dytis:opswitch: unknown option %q", opt)
					bad = true
				}
			}
			if bad {
				continue
			}
			m.used = false
			markers[pass.Fset.Position(cm.Pos()).Line] = m
		}
	}
	return markers
}

// constName resolves a case expression to the constant name it denotes, ""
// when it is not a simple reference to a constant.
func constName(pass *Pass, e ast.Expr) string {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	if c, ok := pass.TypesInfo.Uses[id].(*types.Const); ok {
		return c.Name()
	}
	return ""
}

// gatherProtoFacts enumerates the package's protocol constants, nil when the
// package defines neither an Opcode nor a Status type.
func gatherProtoFacts(pass *Pass) *protoFacts {
	opType := namedIntType(pass.Pkg, "Opcode")
	stType := namedIntType(pass.Pkg, "Status")
	if opType == nil && stType == nil {
		return nil
	}
	f := &protoFacts{Opcodes: map[string]uint64{}, Statuses: map[string]uint64{}}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		v, exact := constUint64(c)
		if !exact {
			continue
		}
		switch {
		case opType != nil && c.Type() == opType && strings.HasPrefix(name, "Op") && v != 0:
			f.Opcodes[name] = v
		case stType != nil && c.Type() == stType && strings.HasPrefix(name, "Status"):
			f.Statuses[name] = v
		}
	}
	// Response-only opcodes are tagged on their declaration comments.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || !hasMarker(vs.Doc, responseOnlyMarker) && !hasMarker(vs.Comment, responseOnlyMarker) {
					continue
				}
				for _, n := range vs.Names {
					if _, isOp := f.Opcodes[n.Name]; isOp {
						f.ResponseOnly = append(f.ResponseOnly, n.Name)
					}
				}
			}
		}
	}
	sort.Strings(f.ResponseOnly)
	return f
}

func hasMarker(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	for _, cm := range cg.List {
		if commentIs(cm.Text, marker) {
			return true
		}
	}
	return false
}

// namedIntType returns the package-scope named type of the given name when
// its underlying type is an integer, else nil.
func namedIntType(pkg *types.Package, name string) types.Type {
	tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	if b, ok := tn.Type().Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
		return nil
	}
	return tn.Type()
}

func constUint64(c *types.Const) (uint64, bool) {
	return constant.Uint64Val(constant.ToInt(c.Val()))
}

// lookupConst fetches a package-scope constant's value by name.
func lookupConst(pkg *types.Package, name string) (uint64, *types.Const, bool) {
	c, ok := pkg.Scope().Lookup(name).(*types.Const)
	if !ok {
		return 0, nil, false
	}
	v, exact := constUint64(c)
	return v, c, exact
}

// checkProtoValues cross-checks the defining package's frame-size and
// feature/version constants. Each individual check runs only when every
// constant it mentions exists, so partial protocol packages (testdata) stay
// quiet about the rest.
func checkProtoValues(pass *Pass) {
	pkg := pass.Pkg
	scope := pkg.Scope()

	// AllFeatures == OR of every Feat* bit.
	if all, allObj, ok := lookupConst(pkg, "AllFeatures"); ok {
		var or uint64
		any := false
		for _, name := range scope.Names() {
			if strings.HasPrefix(name, "Feat") {
				if v, _, ok := lookupConst(pkg, name); ok {
					or |= v
					any = true
				}
			}
		}
		if any && all != or {
			pass.Reportf(allObj.Pos(), "AllFeatures (%#x) != OR of Feat* constants (%#x)", all, or)
		}
	}

	// MaxVersion == highest Version*.
	if maxV, maxObj, ok := lookupConst(pkg, "MaxVersion"); ok {
		var hi uint64
		any := false
		for _, name := range scope.Names() {
			if strings.HasPrefix(name, "Version") {
				if v, _, ok := lookupConst(pkg, name); ok && v > hi {
					hi = v
					any = true
				}
			}
		}
		if any && maxV != hi {
			pass.Reportf(maxObj.Pos(), "MaxVersion (%d) != highest Version* constant (%d)", maxV, hi)
		}
	}

	maxFrame, _, okFrame := lookupConst(pkg, "MaxFrame")
	headerLen, _, okHeader := lookupConst(pkg, "headerLen")
	prefixLen, _, okPrefix := lookupConst(pkg, "prefixLen")
	maxBody, bodyObj, okBody := lookupConst(pkg, "maxBody")

	// maxBody == MaxFrame - headerLen: the length prefix is counted in
	// MaxFrame but not in the body it delimits (the CRC trailer, when
	// negotiated, is counted in neither — it rides outside the prefix).
	if okFrame && okHeader && okBody && maxBody != maxFrame-headerLen {
		pass.Reportf(bodyObj.Pos(), "maxBody (%d) != MaxFrame-headerLen (%d)", maxBody, maxFrame-headerLen)
	}

	// A maximal batch request still fits one frame: id+opcode prefix, the
	// 4-byte deadline budget FlagDeadline can add, a 4-byte count, then 16
	// bytes per key/value pair.
	if maxBatch, batchObj, ok := lookupConst(pkg, "MaxBatch"); ok && okPrefix && okBody {
		if need := prefixLen + 4 + 4 + 16*maxBatch; need > maxBody {
			pass.Reportf(batchObj.Pos(), "a full MaxBatch insert batch (%d bytes) exceeds maxBody (%d)", need, maxBody)
		}
	}

	// A maximal scan response fits too: prefix, 1-byte status, 4-byte count,
	// 16 bytes per pair.
	if maxScan, scanObj, ok := lookupConst(pkg, "MaxScan"); ok && okPrefix && okBody {
		if need := prefixLen + 1 + 4 + 16*maxScan; need > maxBody {
			pass.Reportf(scanObj.Pos(), "a full MaxScan scan response (%d bytes) exceeds maxBody (%d)", need, maxBody)
		}
	}
}
