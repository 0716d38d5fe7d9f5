// Package cpu implements the instruction-level simulator that generates
// branch traces — the stand-in for the paper's Motorola 88100 simulator.
//
// The CPU executes an assembled Program from package asm, retiring one
// instruction per Step. Control-transfer instructions and traps produce
// trace events carrying the number of instructions retired since the
// previous event, which is all the branch-prediction simulator needs.
//
// Semantics notes:
//   - r0 is hardwired to zero; writes to it are discarded.
//   - ANDI/ORI/XORI zero-extend their 16-bit immediate (so la/li can
//     compose addresses); arithmetic immediates sign-extend.
//   - DIV/REM by zero yield zero (a real machine would trap; the
//     benchmark programs never divide by zero).
//   - Stores into the text segment are an error: the trace generator
//     does not support self-modifying code, and the check catches
//     program-generator bugs early.
//   - On Reset the stack pointer is initialised to the top of memory.
package cpu

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	mathbits "math/bits"
	"sync/atomic"

	"twolevel/internal/asm"
	"twolevel/internal/isa"
	"twolevel/internal/trace"
)

// constructions counts CPU instantiations process-wide. Interpreter
// execution is the most expensive stage of the experiment harness, so the
// trace-capture layer is judged by how few of these it allows; tests and
// the benchmark baseline read the counter through Constructions.
var constructions atomic.Uint64

// Constructions returns the number of CPUs constructed by this process.
func Constructions() uint64 { return constructions.Load() }

// DefaultMemSize is the default memory size (4 MiB).
const DefaultMemSize = 1 << 22

// RunCounterAddr is a reserved word below the default program base. The
// looping trace Source stores the restart count there, letting benchmark
// programs vary their behaviour across restarts (they fold the counter
// into their data-generation seeds).
const RunCounterAddr = 0x0FF0

// pageShift sizes the pages Reset tracks: stores mark their 4 KiB page
// dirty, and Reset re-zeroes only the marked pages.
const pageShift = 12

// opUndecodable marks a text word that failed to decode. New predecodes
// the whole text segment, but a bad word faults only when executed,
// exactly as a lazily decoding fetch would.
const opUndecodable = isa.Op(isa.NumOps)

// CPU is one processor executing one program.
type CPU struct {
	prog    *asm.Program
	mem     []byte
	regs    [isa.NumRegs]uint32
	pc      uint32
	halted  bool
	instret uint64

	textStart, textEnd uint32
	// code is the text segment decoded once by New: code[i] is the
	// instruction at codeBase+4*i.
	code     []isa.Inst
	codeBase uint32

	// dirty has one bit per memory page written since the last Reset.
	dirty []uint64

	sinceEvent uint32

	// profile counts retired instructions per opcode when profiling is
	// enabled (nil otherwise: the common case pays nothing). Its extra
	// last slot absorbs opUndecodable and is not exposed.
	profile []uint64
}

// EnableProfile turns on per-opcode retirement counting.
func (c *CPU) EnableProfile() {
	if c.profile == nil {
		c.profile = make([]uint64, isa.NumOps+1)
	}
}

// Profile returns the per-opcode retirement counts (nil when profiling
// was never enabled). Index with isa.Op values.
func (c *CPU) Profile() []uint64 {
	if c.profile == nil {
		return nil
	}
	return c.profile[:isa.NumOps:isa.NumOps]
}

// New creates a CPU with memSize bytes of memory (DefaultMemSize if 0)
// loaded with prog, ready to run. The text segment is decoded here, once.
func New(prog *asm.Program, memSize int) (*CPU, error) {
	if memSize == 0 {
		memSize = DefaultMemSize
	}
	if memSize%4 != 0 || memSize < 4096 {
		return nil, fmt.Errorf("cpu: memory size %d must be a multiple of 4 and at least 4096", memSize)
	}
	end := int64(prog.Base) + int64(len(prog.Image))
	if end > int64(memSize) {
		return nil, fmt.Errorf("cpu: program [%#x,%#x) exceeds memory size %#x", prog.Base, end, memSize)
	}
	constructions.Add(1)
	pages := (memSize + 1<<pageShift - 1) >> pageShift
	c := &CPU{
		prog:      prog,
		mem:       make([]byte, memSize),
		textStart: prog.Base,
		textEnd:   prog.TextEnd,
		codeBase:  (prog.Base + 3) &^ 3,
		dirty:     make([]uint64, (pages+63)/64),
	}
	c.Reset()
	if c.codeBase < c.textEnd {
		c.code = make([]isa.Inst, (c.textEnd-c.codeBase+3)/4)
	}
	for i := range c.code {
		in, err := isa.Decode(binary.LittleEndian.Uint32(c.mem[c.codeBase+uint32(4*i):]))
		if err != nil {
			in.Op = opUndecodable
		}
		c.code[i] = in
	}
	return c, nil
}

// Reset reloads the program image, clears registers and restarts at the
// entry point. Only the pages written since the last Reset are zeroed
// before the image is copied back; the decoded text is retained (text is
// immutable). The stack pointer is set to the top of memory.
func (c *CPU) Reset() {
	for w, bits := range c.dirty {
		for bits != 0 {
			page := w*64 + mathbits.TrailingZeros64(bits)
			bits &= bits - 1
			lo := page << pageShift
			clear(c.mem[lo:min(lo+1<<pageShift, len(c.mem))])
		}
		c.dirty[w] = 0
	}
	copy(c.mem[c.prog.Base:], c.prog.Image)
	c.regs = [isa.NumRegs]uint32{}
	c.regs[isa.RSP] = uint32(len(c.mem) - 16)
	c.pc = c.prog.Entry()
	c.halted = false
	c.sinceEvent = 0
}

// markDirty records a write to the page holding addr for Reset.
func (c *CPU) markDirty(addr uint32) {
	page := addr >> pageShift
	c.dirty[page/64] |= 1 << (page % 64)
}

// Halted reports whether the program has executed HALT.
func (c *CPU) Halted() bool { return c.halted }

// PC returns the current program counter.
func (c *CPU) PC() uint32 { return c.pc }

// Instret returns the number of instructions retired since New.
func (c *CPU) Instret() uint64 { return c.instret }

// Reg returns the value of register r.
func (c *CPU) Reg(r int) uint32 { return c.regs[r] }

// SetReg sets register r (writes to r0 are discarded, as in hardware).
func (c *CPU) SetReg(r int, v uint32) {
	if r != isa.R0 {
		c.regs[r] = v
	}
}

// StoreWord writes a word to memory, bypassing the text-segment check
// (used by the harness, e.g. for the run counter).
func (c *CPU) StoreWord(addr, v uint32) error {
	if addr%4 != 0 || int64(addr)+4 > int64(len(c.mem)) {
		return fmt.Errorf("cpu: StoreWord address %#x invalid", addr)
	}
	binary.LittleEndian.PutUint32(c.mem[addr:], v)
	c.markDirty(addr)
	return nil
}

// LoadWord reads a word from memory.
func (c *CPU) LoadWord(addr uint32) (uint32, error) {
	if addr%4 != 0 || int64(addr)+4 > int64(len(c.mem)) {
		return 0, fmt.Errorf("cpu: LoadWord address %#x invalid", addr)
	}
	return binary.LittleEndian.Uint32(c.mem[addr:]), nil
}

func f32(v uint32) float32    { return math.Float32frombits(v) }
func bits32(f float32) uint32 { return math.Float32bits(f) }

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Fault kinds passed from the core to fault.
const (
	faultFetch = iota
	faultUndecodable
	faultLoadBounds
	faultStoreBounds
	faultStoreText
	faultUnalignedLoad
	faultUnalignedStore
	faultOpcode
)

// fault builds the error for a fault the core detected at pc (addr is
// the data address of a load or store). Faults end a run, so this is the
// cold path and formatting here costs nothing per instruction.
func (c *CPU) fault(kind int, pc, addr uint32) error {
	var err error
	switch kind {
	case faultFetch:
		if pc < c.textStart || pc >= c.textEnd {
			return fmt.Errorf("cpu: pc %#x outside text [%#x,%#x)", pc, c.textStart, c.textEnd)
		}
		return fmt.Errorf("cpu: unaligned pc %#x", pc)
	case faultUndecodable:
		_, err = isa.Decode(binary.LittleEndian.Uint32(c.mem[pc:]))
		return fmt.Errorf("cpu: at pc %#x: %v", pc, err)
	case faultOpcode:
		return fmt.Errorf("cpu: unimplemented opcode %v at pc %#x", c.code[(pc-c.codeBase)>>2].Op, pc)
	case faultLoadBounds:
		err = fmt.Errorf("cpu: load beyond memory at %#x", addr)
	case faultStoreBounds:
		err = fmt.Errorf("cpu: store beyond memory at %#x", addr)
	case faultStoreText:
		err = fmt.Errorf("cpu: store into text segment at %#x (self-modifying code is unsupported)", addr)
	case faultUnalignedLoad:
		err = fmt.Errorf("cpu: unaligned word load at %#x", addr)
	case faultUnalignedStore:
		err = fmt.Errorf("cpu: unaligned word store at %#x", addr)
	}
	return fmt.Errorf("%v (pc %#x)", err, pc)
}

// exec is the interpreter: the one loop and the one opcode switch behind
// Step, Run and Source.Next. It retires instructions until limit have
// retired, the program halts, an instruction faults, or — with
// stopAtEvent — one emits a trace event, which it then returns. The pc,
// the event distance and the retirement count live in locals and are
// written back once on the way out. On a fault the pc stays on the
// faulting instruction; a fetch fault retires nothing, an execute fault
// retires the faulting instruction.
func (c *CPU) exec(limit uint64, stopAtEvent bool) (ev trace.Event, emitted bool, err error) {
	if c.halted {
		return ev, false, nil
	}
	var (
		r        = &c.regs
		mem      = c.mem
		memLen   = uint64(len(c.mem))
		code     = c.code
		codeBase = c.codeBase
		start    = c.textStart
		textLen  = c.textEnd - c.textStart
		textEnd  = c.textEnd
		prof     = c.profile
		pc       = c.pc
		since    = c.sinceEvent
		n        uint64
		noEvent  trace.Event
	)
loop:
	for n < limit {
		if pc-start >= textLen || pc&3 != 0 {
			err = c.fault(faultFetch, pc, 0)
			break
		}
		in := &code[(pc-codeBase)>>2]
		n++
		since++
		if prof != nil {
			prof[in.Op]++
		}
		next := pc + 4
		rd := in.Rd & 31
		rs1 := r[in.Rs1&31]
		rs2 := r[in.Rs2&31]
		switch in.Op {
		case isa.ADD:
			r[rd] = rs1 + rs2
		case isa.SUB:
			r[rd] = rs1 - rs2
		case isa.MUL:
			r[rd] = rs1 * rs2
		case isa.DIV:
			switch {
			case rs2 == 0:
				r[rd] = 0
			case int32(rs1) == math.MinInt32 && int32(rs2) == -1:
				r[rd] = rs1 // overflow wraps
			default:
				r[rd] = uint32(int32(rs1) / int32(rs2))
			}
		case isa.REM:
			if rs2 == 0 || int32(rs1) == math.MinInt32 && int32(rs2) == -1 {
				r[rd] = 0
			} else {
				r[rd] = uint32(int32(rs1) % int32(rs2))
			}
		case isa.AND:
			r[rd] = rs1 & rs2
		case isa.OR:
			r[rd] = rs1 | rs2
		case isa.XOR:
			r[rd] = rs1 ^ rs2
		case isa.SLL:
			r[rd] = rs1 << (rs2 & 31)
		case isa.SRL:
			r[rd] = rs1 >> (rs2 & 31)
		case isa.SRA:
			r[rd] = uint32(int32(rs1) >> (rs2 & 31))
		case isa.SLT:
			r[rd] = b2u(int32(rs1) < int32(rs2))
		case isa.SLTU:
			r[rd] = b2u(rs1 < rs2)
		case isa.FADD:
			r[rd] = bits32(f32(rs1) + f32(rs2))
		case isa.FSUB:
			r[rd] = bits32(f32(rs1) - f32(rs2))
		case isa.FMUL:
			r[rd] = bits32(f32(rs1) * f32(rs2))
		case isa.FDIV:
			r[rd] = bits32(f32(rs1) / f32(rs2))
		case isa.FCMP:
			a, b := f32(rs1), f32(rs2)
			switch {
			case a < b:
				r[rd] = 0xFFFFFFFF // -1
			case a > b:
				r[rd] = 1
			default:
				r[rd] = 0 // equal or unordered
			}
		case isa.CVTIF:
			r[rd] = bits32(float32(int32(rs1)))
		case isa.CVTFI:
			// Compare in float64: float32(MaxInt32) rounds UP to 2^31, so a
			// float32 comparison would let 2^31 through to an out-of-range
			// (implementation-defined) conversion.
			f := float64(f32(rs1))
			if f != f || f >= 1<<31 || f < -(1<<31) {
				r[rd] = 0
			} else {
				r[rd] = uint32(int32(f))
			}

		case isa.ADDI:
			r[rd] = rs1 + uint32(in.Imm)
		case isa.ANDI:
			r[rd] = rs1 & uint32(uint16(in.Imm))
		case isa.ORI:
			r[rd] = rs1 | uint32(uint16(in.Imm))
		case isa.XORI:
			r[rd] = rs1 ^ uint32(uint16(in.Imm))
		case isa.SLLI:
			r[rd] = rs1 << (uint32(in.Imm) & 31)
		case isa.SRLI:
			r[rd] = rs1 >> (uint32(in.Imm) & 31)
		case isa.SRAI:
			r[rd] = uint32(int32(rs1) >> (uint32(in.Imm) & 31))
		case isa.SLTI:
			r[rd] = b2u(int32(rs1) < in.Imm)
		case isa.LUI:
			r[rd] = uint32(uint16(in.Imm)) << 16
		case isa.LW:
			addr := rs1 + uint32(in.Imm)
			if uint64(addr)+4 > memLen {
				err = c.fault(faultLoadBounds, pc, addr)
				break loop
			}
			if addr&3 != 0 {
				err = c.fault(faultUnalignedLoad, pc, addr)
				break loop
			}
			r[rd] = binary.LittleEndian.Uint32(mem[addr:])
		case isa.LB:
			addr := rs1 + uint32(in.Imm)
			if uint64(addr) >= memLen {
				err = c.fault(faultLoadBounds, pc, addr)
				break loop
			}
			r[rd] = uint32(mem[addr])
		case isa.SW:
			addr := rs1 + uint32(in.Imm)
			if uint64(addr)+4 > memLen {
				err = c.fault(faultStoreBounds, pc, addr)
				break loop
			}
			if addr+4 > start && addr < textEnd {
				err = c.fault(faultStoreText, pc, addr)
				break loop
			}
			if addr&3 != 0 {
				err = c.fault(faultUnalignedStore, pc, addr)
				break loop
			}
			binary.LittleEndian.PutUint32(mem[addr:], r[rd])
			c.markDirty(addr)
		case isa.SB:
			addr := rs1 + uint32(in.Imm)
			if uint64(addr) >= memLen {
				err = c.fault(faultStoreBounds, pc, addr)
				break loop
			}
			if addr+1 > start && addr < textEnd {
				err = c.fault(faultStoreText, pc, addr)
				break loop
			}
			mem[addr] = byte(r[rd])
			c.markDirty(addr)

		case isa.BCND:
			ev.Branch.Target = pc + uint32(in.Imm)*4
			ev.Branch.Class = trace.Cond
			ev.Branch.Taken = in.Cond.Holds(rs1)
			if ev.Branch.Taken {
				next = ev.Branch.Target
			}
			emitted = true
		case isa.BR:
			ev.Branch.Target = pc + uint32(in.Imm)*4
			ev.Branch.Class = trace.Uncond
			ev.Branch.Taken = true
			next = ev.Branch.Target
			emitted = true
		case isa.BSR:
			ev.Branch.Target = pc + uint32(in.Imm)*4
			ev.Branch.Class = trace.Call
			ev.Branch.Taken = true
			r[isa.RLink] = pc + 4
			next = ev.Branch.Target
			emitted = true
		case isa.JMP:
			ev.Branch.Target = rs1
			ev.Branch.Class = trace.Indirect
			if in.Rs1 == isa.RLink {
				ev.Branch.Class = trace.Return
			}
			ev.Branch.Taken = true
			next = rs1
			emitted = true
		case isa.JSR:
			ev.Branch.Target = rs1
			ev.Branch.Class = trace.Call
			ev.Branch.Taken = true
			r[isa.RLink] = pc + 4
			next = rs1
			emitted = true

		case isa.TRAP:
			ev.Trap = true
			emitted = true
		case isa.HALT:
			c.halted = true
			break loop
		case opUndecodable:
			// A fetch fault: the word never retires.
			n--
			since--
			err = c.fault(faultUndecodable, pc, 0)
			break loop
		default:
			err = c.fault(faultOpcode, pc, 0)
			break loop
		}
		r[0] = 0
		if emitted {
			ev.Instrs = since
			if !ev.Trap {
				ev.Branch.PC = pc
			}
			since = 0
			pc = next
			if stopAtEvent {
				break
			}
			ev, emitted = noEvent, false
		} else {
			pc = next
		}
	}
	c.pc = pc
	c.sinceEvent = since
	c.instret += n
	return ev, emitted, err
}

// Step executes one instruction. If the instruction generates a trace
// event (a branch or a trap) it is returned with emitted true. After HALT
// (or on a halted CPU) Step returns emitted false and no error.
func (c *CPU) Step() (ev trace.Event, emitted bool, err error) {
	return c.exec(1, true)
}

// Run executes until the program halts or maxInstrs instructions retire
// (0 = no limit), discarding events. It returns the number of
// instructions retired by this call.
func (c *CPU) Run(maxInstrs uint64) (uint64, error) {
	if maxInstrs == 0 {
		maxInstrs = math.MaxUint64
	}
	start := c.instret
	_, _, err := c.exec(maxInstrs, false)
	return c.instret - start, err
}

// Source adapts a CPU into a trace.Source. With Loop set, the program is
// restarted when it halts: memory and registers are reset and the restart
// count is stored at RunCounterAddr so programs can vary their data
// across runs. A program that halts without producing any event cannot
// loop meaningfully; Next reports an error in that case.
type Source struct {
	cpu           *CPU
	loop          bool
	runs          uint32
	events        uint64
	eventsAtReset uint64
}

// NewSource wraps cpu. loop selects restart-on-halt.
func NewSource(cpu *CPU, loop bool) *Source {
	return &Source{cpu: cpu, loop: loop}
}

// Runs returns the number of program restarts so far.
func (s *Source) Runs() uint32 { return s.runs }

// Next implements trace.Source.
func (s *Source) Next() (trace.Event, error) {
	for {
		if s.cpu.Halted() {
			if !s.loop {
				return trace.Event{}, io.EOF
			}
			if s.events == s.eventsAtReset {
				return trace.Event{}, fmt.Errorf("cpu: program produced no events in a full run; refusing to loop")
			}
			s.runs++
			s.cpu.Reset()
			if err := s.cpu.StoreWord(RunCounterAddr, s.runs); err != nil {
				return trace.Event{}, err
			}
			s.eventsAtReset = s.events
		}
		ev, emitted, err := s.cpu.exec(math.MaxUint64, true)
		if err != nil {
			return trace.Event{}, err
		}
		if emitted {
			s.events++
			return ev, nil
		}
	}
}
