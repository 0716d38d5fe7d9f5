package asm

import (
	"encoding/binary"
	"strconv"
	"strings"
	"testing"

	"twolevel/internal/isa"
)

// word extracts the i-th instruction word of the image.
func word(p *Program, i int) uint32 {
	return binary.LittleEndian.Uint32(p.Image[4*i:])
}

// decode decodes the i-th instruction of the image.
func decode(t *testing.T, p *Program, i int) isa.Inst {
	t.Helper()
	in, err := isa.Decode(word(p, i))
	if err != nil {
		t.Fatalf("instruction %d: %v", i, err)
	}
	return in
}

func TestAssembleBasicProgram(t *testing.T) {
	p, err := Assemble(`
		; sum 1..10
		li   r1, 0        ; acc
		li   r2, 10       ; counter
	loop:
		add  r1, r1, r2
		addi r2, r2, -1
		bcnd ne0, r2, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Base != DefaultBase {
		t.Fatalf("base = %#x", p.Base)
	}
	if p.Size() != 6*4 {
		t.Fatalf("size = %d, want 24", p.Size())
	}
	if p.Labels["loop"] != DefaultBase+8 {
		t.Fatalf("loop label = %#x", p.Labels["loop"])
	}
	b := decode(t, p, 4)
	if b.Op != isa.BCND || b.Cond != isa.NE0 || b.Rs1 != 2 {
		t.Fatalf("bcnd decoded wrong: %v", b)
	}
	// Branch displacement: from base+16 back to base+8 = -2 words.
	if b.Imm != -2 {
		t.Fatalf("bcnd displacement = %d, want -2", b.Imm)
	}
	if decode(t, p, 5).Op != isa.HALT {
		t.Fatal("last instruction should be halt")
	}
}

func TestOrgDirective(t *testing.T) {
	p, err := Assemble(".org 0x2000\nstart:\n halt\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Base != 0x2000 || p.Labels["start"] != 0x2000 {
		t.Fatalf("base %#x label %#x", p.Base, p.Labels["start"])
	}
	// .org after code is rejected.
	if _, err := Assemble("halt\n.org 0x2000\n"); err == nil {
		t.Fatal(".org after code accepted")
	}
}

func TestLiExpansion(t *testing.T) {
	p := MustAssemble("li r5, 42\nhalt\n")
	if p.Size() != 8 {
		t.Fatalf("small li should be 1 instruction, size %d", p.Size())
	}
	in := decode(t, p, 0)
	if in.Op != isa.ADDI || in.Rd != 5 || in.Imm != 42 {
		t.Fatalf("small li decoded %v", in)
	}

	p2 := MustAssemble("li r5, 0x12348765\nhalt\n")
	if p2.Size() != 12 {
		t.Fatalf("large li should be 2 instructions, size %d", p2.Size())
	}
	lui := decode(t, p2, 0)
	ori := decode(t, p2, 1)
	if lui.Op != isa.LUI || uint16(lui.Imm) != 0x1234 {
		t.Fatalf("lui half wrong: %v", lui)
	}
	if ori.Op != isa.ORI || ori.Rd != 5 || ori.Rs1 != 5 || uint16(ori.Imm) != 0x8765 {
		t.Fatalf("ori half wrong: %v", ori)
	}

	neg := MustAssemble("li r5, -2\nhalt\n")
	if in := decode(t, neg, 0); in.Op != isa.ADDI || in.Imm != -2 {
		t.Fatalf("negative li wrong: %v", in)
	}
}

func TestLaResolvesAddressHalves(t *testing.T) {
	p := MustAssemble(`
		la r3, data
		halt
	data:
		.word 0xdeadbeef
	`)
	lui := decode(t, p, 0)
	ori := decode(t, p, 1)
	addr := p.Labels["data"]
	if uint16(lui.Imm) != uint16(addr>>16) || uint16(ori.Imm) != uint16(addr) {
		t.Fatalf("la halves %#x/%#x for addr %#x", uint16(lui.Imm), uint16(ori.Imm), addr)
	}
	// The data word itself.
	if got := binary.LittleEndian.Uint32(p.Image[addr-p.Base:]); got != 0xdeadbeef {
		t.Fatalf("data word = %#x", got)
	}
}

func TestWordWithLabelReference(t *testing.T) {
	p := MustAssemble(`
	entry:
		halt
	table:
		.word entry, table, 7
	`)
	tbl := p.Labels["table"] - p.Base
	if binary.LittleEndian.Uint32(p.Image[tbl:]) != p.Labels["entry"] {
		t.Fatal("label reference in .word not resolved")
	}
	if binary.LittleEndian.Uint32(p.Image[tbl+4:]) != p.Labels["table"] {
		t.Fatal("self reference in .word not resolved")
	}
	if binary.LittleEndian.Uint32(p.Image[tbl+8:]) != 7 {
		t.Fatal("numeric .word not emitted")
	}
}

func TestSpaceDirective(t *testing.T) {
	p := MustAssemble(`
		halt
	buf:
		.space 16
	end:
		.word 1
	`)
	if p.Labels["end"]-p.Labels["buf"] != 16 {
		t.Fatalf("space = %d bytes", p.Labels["end"]-p.Labels["buf"])
	}
}

func TestTextEnd(t *testing.T) {
	p := MustAssemble(`
		nop
		nop
		halt
	data:
		.word 1, 2, 3
	`)
	if p.TextEnd != p.Base+12 {
		t.Fatalf("TextEnd = %#x, want %#x", p.TextEnd, p.Base+12)
	}
	// Program with no data: TextEnd covers everything.
	p2 := MustAssemble("nop\nhalt\n")
	if p2.TextEnd != p2.Base+8 {
		t.Fatalf("TextEnd = %#x", p2.TextEnd)
	}
}

func TestMemoryOperands(t *testing.T) {
	p := MustAssemble(`
		lw r1, 8(sp)
		sw r2, -4(r10)
		lb r3, (r4)
		sb r5, 0(zero)
		halt
	`)
	lw := decode(t, p, 0)
	if lw.Op != isa.LW || lw.Rd != 1 || lw.Rs1 != isa.RSP || lw.Imm != 8 {
		t.Fatalf("lw: %v", lw)
	}
	sw := decode(t, p, 1)
	if sw.Op != isa.SW || sw.Rd != 2 || sw.Rs1 != 10 || sw.Imm != -4 {
		t.Fatalf("sw: %v", sw)
	}
	lb := decode(t, p, 2)
	if lb.Imm != 0 || lb.Rs1 != 4 {
		t.Fatalf("lb with empty offset: %v", lb)
	}
}

func TestPseudoInstructions(t *testing.T) {
	p := MustAssemble(`
		nop
		mv r2, r9
		rts
	`)
	if in := decode(t, p, 0); in.Op != isa.ADDI || in.Rd != 0 {
		t.Fatalf("nop: %v", in)
	}
	if in := decode(t, p, 1); in.Op != isa.ADDI || in.Rd != 2 || in.Rs1 != 9 || in.Imm != 0 {
		t.Fatalf("mv: %v", in)
	}
	if in := decode(t, p, 2); in.Op != isa.JMP || in.Rs1 != isa.RLink {
		t.Fatalf("rts: %v", in)
	}
}

func TestRegisterAliases(t *testing.T) {
	p := MustAssemble("add r1, sp, ra\nadd r2, zero, r3\nhalt\n")
	in := decode(t, p, 0)
	if in.Rs1 != isa.RSP || in.Rs2 != isa.RLink {
		t.Fatalf("aliases: %v", in)
	}
	if decode(t, p, 1).Rs1 != isa.R0 {
		t.Fatal("zero alias broken")
	}
}

func TestBranchToNumericAddress(t *testing.T) {
	p := MustAssemble(".org 0x1000\nbr 0x1008\nnop\nhalt\n")
	if in := decode(t, p, 0); in.Imm != 2 {
		t.Fatalf("numeric branch displacement = %d, want 2", in.Imm)
	}
}

func TestCallAndReturn(t *testing.T) {
	p := MustAssemble(`
		bsr func
		halt
	func:
		jsr r9
		rts
	`)
	bsr := decode(t, p, 0)
	if bsr.Op != isa.BSR || bsr.Imm != 2 {
		t.Fatalf("bsr: %v", bsr)
	}
	if in := decode(t, p, 2); in.Op != isa.JSR || in.Rs1 != 9 {
		t.Fatalf("jsr: %v", in)
	}
}

func TestMultipleLabelsSameAddress(t *testing.T) {
	p := MustAssemble("a: b: c: halt\n")
	if p.Labels["a"] != p.Labels["b"] || p.Labels["b"] != p.Labels["c"] {
		t.Fatal("stacked labels differ")
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2, r3",
		"add r1, r2",               // arity
		"add r1, r2, r99",          // bad register
		"addi r1, r2, 99999",       // imm range
		"bcnd zz0, r1, x\nx: halt", // bad cond
		"br nowhere",               // undefined label
		"dup: nop\ndup: nop",       // duplicate label
		"1bad: nop",                // invalid label
		"r5: nop",                  // register-like label
		".word",                    // empty word
		".space 3",                 // misaligned space
		".space -4",
		".bogus 1",
		"la r1, 0x1000", // la wants a label
		"li r1, 0x123456789",
		"lw r1, 8",    // malformed mem operand
		"lw r1, 8(r1", // unclosed
		"halt extra",  // arity
		"nop r1",
		"rts r1",
		"trap",
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) accepted", src)
		}
	}
}

func TestErrorMentionsLineNumber(t *testing.T) {
	_, err := Assemble("nop\nnop\nbogus x\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error should cite line 3: %v", err)
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	p := MustAssemble(`
		; full-line comment
		# another

		nop ; trailing
		halt # trailing
	`)
	if p.Size() != 8 {
		t.Fatalf("size = %d, want 8", p.Size())
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustAssemble("bogus")
}

func BenchmarkAssembleLargeProgram(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		sb.WriteString("l")
		sb.WriteString(strings.Repeat("x", 1)) // label churn
		sb.WriteString(string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26)))
		sb.WriteString(": addi r1, r1, 1\n bcnd ne0, r1, lxaaa\n")
	}
	sb.WriteString("halt\n")
	src := sb.String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRegNumMatchesAtoi pins regNum to the strconv.Atoi reading of r<n>
// it replaced, signs and leading zeros included.
func TestRegNumMatchesAtoi(t *testing.T) {
	atoiReg := func(s string) (uint8, bool) {
		switch s {
		case "zero":
			return isa.R0, true
		case "sp":
			return isa.RSP, true
		case "ra":
			return isa.RLink, true
		}
		if len(s) >= 2 && s[0] == 'r' {
			n, err := strconv.Atoi(s[1:])
			if err == nil && n >= 0 && n < isa.NumRegs {
				return uint8(n), true
			}
		}
		return 0, false
	}
	for _, s := range []string{
		"", "r", "r0", "r9", "r31", "r32", "r99", "r007", "r0031", "r+3", "r-0", "r-00",
		"r-1", "r+", "r-", "r3x", "rx", "R1", "zero", "sp", "ra", "spx", "r_loop", "r1.5",
		"r99999999999999999999", "r00000000000000000000000000031", " r1", "r 1",
	} {
		gn, gok := regNum(s)
		wn, wok := atoiReg(s)
		if gn != wn || gok != wok {
			t.Errorf("regNum(%q) = %d, %v; Atoi reading %d, %v", s, gn, gok, wn, wok)
		}
	}
}
