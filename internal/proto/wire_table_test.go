package proto

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// layout names f's wire shape by running its codec case on a probe body,
// so the table shows what the code does rather than what a second list
// claims. The probe is a count (or u32) of 1 then zeros: a fixed-width
// field takes its width, a list its count and one entry, a rest-of-frame
// field everything. Of the 1-byte shapes, a length prefix shows itself on
// a first byte of 2 by taking 2 more bytes.
func layout(f *field, run func(*codec)) string {
	probe := func(body []byte) (int, error) {
		var err error
		c := codec{in: body, dec: true, err: &err}
		run(&c)
		return c.off, err
	}
	body := make([]byte, 64)
	body[3] = 1
	n, err := probe(body)
	if err != nil {
		return fmt.Sprintf("unprobed %s: %v", f.name, err)
	}
	bound := fmt.Sprintf(" [n ≤ %d]", f.hi)
	switch n {
	case 1:
		body[0] = 2
		if m, _ := probe(body); m == 3 {
			return fmt.Sprintf("len(1) %s(len) [len ≤ %d]", f.name, f.hi)
		}
		return f.name + "(1)"
	case 4:
		if f.hi > 0 {
			return fmt.Sprintf("%s(4) [%d–%d]", f.name, f.lo, f.hi)
		}
		return f.name + "(4)"
	case 8:
		return f.name + "(8)"
	case 4 + 8:
		return "n(4) key(8)×n" + bound
	case 4 + 16:
		return "n(4) [key(8) val(8)]×n" + bound
	case 4 + 9:
		return "n(4) [found(1) val(8)]×n" + bound
	case 4 + 1:
		return "n(4) found(1)×n" + bound
	case len(body):
		if f.hi > 0 {
			return fmt.Sprintf("%s(rest) [%d–%d bytes]", f.name, f.lo, f.hi)
		}
		return f.name + "(rest)"
	}
	return fmt.Sprintf("unprobed %s: %d bytes", f.name, n)
}

func payload(fs []*field, run func(*codec, *field)) string {
	if len(fs) == 0 {
		return "—"
	}
	var parts []string
	for _, f := range fs {
		parts = append(parts, layout(f, func(c *codec) { run(c, f) }))
	}
	return strings.Join(parts, " ")
}

// renderWireTable renders specs as DESIGN.md §9's wire table.
func renderWireTable() string {
	var b strings.Builder
	b.WriteString("| Op | Name | Request payload | OK response payload | Needs |\n|---|---|---|---|---|\n")
	for op := Opcode(1); op < NumOpcodes; op++ {
		s := specs[op]
		if s.name == "" {
			fmt.Fprintf(&b, "| %d | *reserved* | — | — | — |\n", op)
			continue
		}
		req := "*response only*"
		if s.req != nil {
			req = payload(s.req, func(c *codec, f *field) { (&Request{}).field(c, nil, f) })
		}
		resp := payload(s.resp, func(c *codec, f *field) { (&Response{}).field(c, nil, f) })
		needs := "—"
		if s.cluster {
			needs = "FeatCluster"
		}
		fmt.Fprintf(&b, "| %d | %s | %s | %s | %s |\n", op, s.name, req, resp, needs)
	}
	return b.String()
}

// TestWireTableInDesign fails when DESIGN.md §9's wire table differs from
// the one specs renders.
func TestWireTableInDesign(t *testing.T) {
	const begin, end = "<!-- wire table: rendered by TestWireTableInDesign -->\n", "<!-- end wire table -->"
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), begin)
	got, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("DESIGN.md has no %q ... %q block", begin, end)
	}
	want := renderWireTable()
	if strings.Contains(want, "unprobed") {
		t.Fatalf("a field's shape did not probe:\n%s", want)
	}
	if got != want {
		t.Fatalf("DESIGN.md's wire table differs from specs; replace it with:\n%s", want)
	}
}
