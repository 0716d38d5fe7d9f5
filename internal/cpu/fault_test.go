package cpu

import (
	"encoding/binary"
	"testing"

	"twolevel/internal/asm"
	"twolevel/internal/isa"
)

// withBadWord assembles src and overwrites its third word with an
// undecodable one (opcode 63), which the assembler never emits.
func withBadWord(src string) *asm.Program {
	p := asm.MustAssemble(src)
	binary.LittleEndian.PutUint32(p.Image[8:], 0xFFFFFFFF)
	return p
}

// TestFaultsKeepMessageAndState pins every fault path's message and the
// PC and Instret it leaves behind. The figures were recorded from the
// per-instruction interpreter that predates the predecoded core:
// fetch faults retire nothing, execute faults count the faulting
// instruction and leave the PC on it.
func TestFaultsKeepMessageAndState(t *testing.T) {
	cases := []struct {
		name    string
		prog    *asm.Program
		err     string
		pc      uint32
		instret uint64
	}{
		{"fetch outside text", asm.MustAssemble("li r1, 0x8000\njmp r1\nhalt\n"),
			"cpu: pc 0x8000 outside text [0x1000,0x1010)", 0x8000, 3},
		{"unaligned pc", asm.MustAssemble("la r1, t\naddi r1, r1, 2\njmp r1\nt: halt\n"),
			"cpu: unaligned pc 0x1012", 0x1012, 4},
		{"undecodable word", withBadWord("nop\nnop\nnop\nhalt\n"),
			"cpu: at pc 0x1008: isa: invalid opcode 63 in word 0xffffffff", 0x1008, 2},
		{"load word beyond memory", asm.MustAssemble("li r1, 0x7FFFFFF0\nlw r2, 0(r1)\nhalt\n"),
			"cpu: load beyond memory at 0x7ffffff0 (pc 0x1008)", 0x1008, 3},
		{"load byte beyond memory", asm.MustAssemble("li r1, 0x10000\nlb r2, 0(r1)\nhalt\n"),
			"cpu: load beyond memory at 0x10000 (pc 0x1008)", 0x1008, 3},
		{"store word beyond memory", asm.MustAssemble("li r1, 0xFFFE\nsw r1, 0(r1)\nhalt\n"),
			"cpu: store beyond memory at 0xfffe (pc 0x1008)", 0x1008, 3},
		{"store byte beyond memory", asm.MustAssemble("li r1, 0x7FFFFFF0\nsb r1, 0(r1)\nhalt\n"),
			"cpu: store beyond memory at 0x7ffffff0 (pc 0x1008)", 0x1008, 3},
		{"unaligned word load", asm.MustAssemble("li r1, 3\nlw r2, 0(r1)\nhalt\n"),
			"cpu: unaligned word load at 0x3 (pc 0x1004)", 0x1004, 2},
		{"unaligned word store", asm.MustAssemble("li r1, 0x4002\nsw r1, 0(r1)\nhalt\n"),
			"cpu: unaligned word store at 0x4002 (pc 0x1004)", 0x1004, 2},
		{"store word into text", asm.MustAssemble("la r1, start\nstart:\nsw r1, 0(r1)\nhalt\n"),
			"cpu: store into text segment at 0x1008 (self-modifying code is unsupported) (pc 0x1008)", 0x1008, 3},
		{"store byte into text", asm.MustAssemble("la r1, start\nstart:\nsb r1, 3(r1)\nhalt\n"),
			"cpu: store into text segment at 0x100b (self-modifying code is unsupported) (pc 0x1008)", 0x1008, 3},
		// The text check comes before the alignment check.
		{"unaligned store into text", asm.MustAssemble("la r1, start\nstart:\nsw r1, 2(r1)\nhalt\n"),
			"cpu: store into text segment at 0x100a (self-modifying code is unsupported) (pc 0x1008)", 0x1008, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, drive := range []string{"Run", "Step"} {
				c, err := New(tc.prog, 1<<16)
				if err != nil {
					t.Fatal(err)
				}
				if drive == "Run" {
					_, err = c.Run(100)
				} else {
					for i := 0; i < 100 && err == nil && !c.Halted(); i++ {
						_, _, err = c.Step()
					}
				}
				if err == nil || err.Error() != tc.err {
					t.Errorf("%s: err = %v, want %q", drive, err, tc.err)
				}
				if c.PC() != tc.pc || c.Instret() != tc.instret {
					t.Errorf("%s: pc %#x instret %d, want %#x %d", drive, c.PC(), c.Instret(), tc.pc, tc.instret)
				}
			}
		})
	}
}

// TestUndecodableWordFaultsOnlyWhenExecuted checks that predecoding
// does not turn a bad word the program never reaches into an error.
func TestUndecodableWordFaultsOnlyWhenExecuted(t *testing.T) {
	c, err := New(withBadWord("nop\nbr t\nnop\nt: halt\n"), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if !c.Halted() || c.Instret() != 3 {
		t.Fatalf("halted %v instret %d, want true 3", c.Halted(), c.Instret())
	}
}

// TestUnimplementedOpcodeFault reaches the core's default case, which no
// decodable word can, by planting an undefined opcode in the decoded
// text.
func TestUnimplementedOpcodeFault(t *testing.T) {
	c, err := New(asm.MustAssemble("nop\nhalt\n"), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	c.code[1].Op = isa.Op(200)
	_, err = c.Run(100)
	if want := "cpu: unimplemented opcode op(200) at pc 0x1004"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if c.PC() != 0x1004 || c.Instret() != 2 {
		t.Fatalf("pc %#x instret %d, want 0x1004 2", c.PC(), c.Instret())
	}
}
