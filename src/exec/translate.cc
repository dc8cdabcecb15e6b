/**
 * @file
 * CompiledUnit -> TranslatedUnit: the discovery/validation pass of the
 * translated backend. analysis::buildCfg() proves the delay-slot
 * structure well-formed (no control transfers, trap-capable ops, or
 * Sys calls inside slots; no targets into slots; no truncated groups),
 * and the per-instruction pass pre-decodes operands, bakes the tag
 * scheme into constant masks, and resolves every op to its executor
 * handler address.
 *
 * Refusal, never failure: any unit the translator cannot prove
 * equivalent to the interpreter comes back with a diagnostic note and
 * no TranslatedUnit. In the engine's Auto tier a refusal just means the
 * interpreter runs — including for units whose execution would panic
 * (e.g. tag-hardware opcodes without the hardware bit), so the
 * interpreter's diagnostics are preserved verbatim.
 */

#include <cstdint>
#include <initializer_list>

#include "analysis/cfg.h"
#include "exec/texec.h"
#include "exec/texec_internal.h"
#include "support/bits.h"
#include "support/format.h"

namespace mxl {

namespace {

TranslateResult
refuse(std::string note)
{
    return {nullptr, std::move(note)};
}

} // namespace

TranslateResult
translateUnit(const CompiledUnit &unit)
{
    const void *const *labels = texecLabelTable();
    if (!labels)
        return refuse("host compiler has no computed-goto support");
    if (!unit.scheme)
        return refuse("unit has no tag scheme");

    const auto &code = unit.prog.code;
    const int n = static_cast<int>(code.size());
    if (n == 0)
        return refuse("empty program");
    if (unit.entry < 0 || unit.entry >= n)
        return refuse(strcat("entry point ", unit.entry, " out of range"));

    const Cfg cfg = buildCfg(unit.prog);
    if (!cfg.ok()) {
        const auto &m = cfg.malformed.front();
        return refuse(strcat("malformed delay-slot structure at pc ",
                             m.pc, ": ", m.what));
    }

    const TagScheme &scheme = *unit.scheme;
    const HardwareConfig &hw = unit.opts.hw;
    const bool lowTags = scheme.placement() == TagPlacement::Low;

    auto tu = std::make_shared<TranslatedUnit>();
    tu->nInsts = static_cast<size_t>(n);
    tu->entry = unit.entry;
    tu->tagShift = scheme.tagShift();
    tu->tagMask = (1u << scheme.tagBits()) - 1u;
    // All built-in schemes detag with a constant mask; derive it from
    // the virtual call and verify the model holds so a future
    // non-mask scheme refuses instead of mistranslating.
    tu->detagMask = scheme.detagAddr(0xffffffffu);
    for (uint32_t probe : {0u, 0x5a5a5a5au, 0xa5a5a5a5u, 0x00000007u}) {
        if (scheme.detagAddr(probe) != (probe & tu->detagMask) ||
            scheme.primaryTag(probe) !=
                ((probe >> tu->tagShift) & tu->tagMask))
            return refuse(strcat("tag scheme '", scheme.name(),
                                 "' is not mask-representable"));
    }
    // The executor's fixnum handling (Addt/Subt, sys putfix) hardcodes
    // the two built-in encoding families.
    switch (unit.opts.scheme) {
      case SchemeKind::High5:
      case SchemeKind::High6:
      case SchemeKind::Low2:
      case SchemeKind::Low3:
        break;
      default:
        return refuse(strcat("unknown scheme kind for '", scheme.name(),
                             "'"));
    }
    tu->memMask = hw.ignoreTagOnMemory ? tu->detagMask : 0xffffffffu;
    tu->dataBits = scheme.dataBits();
    tu->lowTags = lowTags;
    tu->memTagging = hw.memTagging;
    if (hw.memTagging) {
        // The lock/key check classifies base registers with the
        // encoding family's constant fixnum test; verify it like the
        // masks above.
        for (uint32_t probe : {0u, 4u, 7u, 0x5a5a5a5au, 0xa5a5a5a5u,
                               0xffffffffu, 0x04000000u, 0xfc000000u}) {
            const bool fix =
                lowTags ? (probe & 3u) == 0
                        : static_cast<uint32_t>(
                              signExtend(probe, tu->dataBits)) == probe;
            if (scheme.wordIsFixnum(probe) != fix)
                return refuse(strcat("tag scheme '", scheme.name(),
                                     "' has no constant fixnum test"));
        }
    }

    // Pre-gate trap handlers exactly like runUnitOn(): a handler is
    // live only when the hardware feature exists and the unit compiled
    // one. A live handler must be a real instruction index (the
    // executor dispatches straight to it).
    tu->arithTrap =
        (hw.genericArith && unit.arithTrap >= 0) ? unit.arithTrap : -1;
    tu->tagTrap = (hw.checkedMemory != CheckedMem::None &&
                   unit.tagTrap >= 0)
                      ? unit.tagTrap
                      : -1;
    if (tu->arithTrap >= n)
        return refuse(strcat("arith trap handler ", tu->arithTrap,
                             " out of range"));
    if (tu->tagTrap >= n)
        return refuse(strcat("tag trap handler ", tu->tagTrap,
                             " out of range"));

    tu->gcCountAddr = unit.layout.cellAddr(Cell::GcCount);
    tu->heapUsedAddr = unit.layout.cellAddr(Cell::HeapUsed);

    tu->ops.resize(static_cast<size_t>(n) + 1);
    for (int i = 0; i < n; ++i) {
        const Instruction &inst = code[i];
        TranslatedOp &op = tu->ops[i];

        int kind = -1;
        switch (inst.op) {
          case Opcode::Add:  kind = TAdd;  break;
          case Opcode::Sub:  kind = TSub;  break;
          case Opcode::And:  kind = TAnd;  break;
          case Opcode::Or:   kind = TOr;   break;
          case Opcode::Xor:  kind = TXor;  break;
          case Opcode::Sll:  kind = TSll;  break;
          case Opcode::Srl:  kind = TSrl;  break;
          case Opcode::Sra:  kind = TSra;  break;
          case Opcode::Mul:  kind = TMul;  break;
          case Opcode::Div:  kind = TDiv;  break;
          case Opcode::Rem:  kind = TRem;  break;
          case Opcode::Addi: kind = TAddi; break;
          case Opcode::Andi: kind = TAndi; break;
          case Opcode::Ori:  kind = TOri;  break;
          case Opcode::Xori: kind = TXori; break;
          case Opcode::Slli: kind = TSlli; break;
          case Opcode::Srli: kind = TSrli; break;
          case Opcode::Srai: kind = TSrai; break;
          case Opcode::Li:   kind = TLi;   break;
          case Opcode::Mov:  kind = TMov;  break;
          case Opcode::Noop: kind = TNoop; break;
          // Memory-tagging hardware has its own memory kinds, so the
          // kinds (and fused pairs) of every other unit stay as they are.
          case Opcode::Ld:   kind = hw.memTagging ? TLdM : TLd; break;
          case Opcode::St:   kind = hw.memTagging ? TStM : TSt; break;
          case Opcode::Ldt:
          case Opcode::Stt:
            if (hw.checkedMemory == CheckedMem::None)
                return refuse(strcat(opcodeName(inst.op), " at pc ", i,
                                     " without checked-memory hardware"));
            if (inst.op == Opcode::Ldt)
                kind = hw.memTagging ? TLdtM : TLdt;
            else
                kind = hw.memTagging ? TSttM : TStt;
            break;
          case Opcode::Addt:
          case Opcode::Subt:
            if (!hw.genericArith)
                return refuse(strcat(opcodeName(inst.op), " at pc ", i,
                                     " without generic-arith hardware"));
            if (inst.op == Opcode::Addt)
                kind = lowTags ? TAddtLow : TAddtHigh;
            else
                kind = lowTags ? TSubtLow : TSubtHigh;
            break;
          case Opcode::Beq:  kind = TBeq;  break;
          case Opcode::Bne:  kind = TBne;  break;
          case Opcode::Blt:  kind = TBlt;  break;
          case Opcode::Bge:  kind = TBge;  break;
          case Opcode::Ble:  kind = TBle;  break;
          case Opcode::Bgt:  kind = TBgt;  break;
          case Opcode::Beqi: kind = TBeqi; break;
          case Opcode::Bnei: kind = TBnei; break;
          case Opcode::Btag:
          case Opcode::Bntag:
            if (!hw.branchOnTag)
                return refuse(strcat(opcodeName(inst.op), " at pc ", i,
                                     " without branch-on-tag hardware"));
            kind = inst.op == Opcode::Btag ? TBtag : TBntag;
            break;
          case Opcode::J:    kind = TJ;    break;
          case Opcode::Jal:  kind = TJal;  break;
          case Opcode::Jr:   kind = TJr;   break;
          case Opcode::Jalr: kind = TJalr; break;
          case Opcode::Sys:
            switch (inst.imm) {
              case static_cast<int>(SysCode::Halt):
                kind = TSysHalt;
                break;
              case static_cast<int>(SysCode::PutChar):
                kind = TSysPutChar;
                break;
              case static_cast<int>(SysCode::PutFixRaw):
                kind = TSysPutFixRaw;
                break;
              case static_cast<int>(SysCode::PutFix):
                kind = TSysPutFix;
                break;
              case static_cast<int>(SysCode::Error):
                kind = TSysError;
                break;
              default:
                return refuse(strcat("unknown sys code ", inst.imm,
                                     " at pc ", i));
            }
            break;
        }
        if (kind < 0)
            return refuse(strcat("untranslatable opcode at pc ", i));

        // A statically-targeted transfer must land inside the program
        // (the executor threads straight to ops[target]).
        if (isControl(inst.op) && inst.op != Opcode::Jr &&
            inst.op != Opcode::Jalr &&
            (inst.target < 0 || inst.target >= n))
            return refuse(strcat("branch target ", inst.target,
                                 " out of range at pc ", i));

        // uimm preserves interpreter semantics for every user: ALU
        // immediates and memory offsets truncate to uint32, shift
        // amounts mask to 5 bits, and Beqi/Bnei compare int32 — which
        // is only equivalent when the immediate fits int32.
        if ((inst.op == Opcode::Beqi || inst.op == Opcode::Bnei) &&
            (inst.imm < INT32_MIN || inst.imm > INT32_MAX))
            return refuse(strcat("branch immediate ", inst.imm,
                                 " out of int32 range at pc ", i));
        if (inst.timm > 0xff)
            return refuse(strcat("tag immediate ", inst.timm,
                                 " out of range at pc ", i));

        op.kind = static_cast<uint8_t>(kind);
        op.handler = labels[kind];
        op.idx = static_cast<uint32_t>(i);
        op.uimm = static_cast<uint32_t>(inst.imm);
        op.timm = static_cast<uint8_t>(inst.timm);
        op.target = inst.target;
        op.rs = inst.rs;
        op.rt = inst.rt;
        op.wslot = inst.rd == 0 ? 32 : inst.rd;
        op.pendReg = inst.rd;
        op.cycles = static_cast<uint8_t>(opCycles(inst.op));
        op.annul = (inst.annul == Annul::OnTaken ? 1 : 0) |
                   (inst.annul == Annul::OnNotTaken ? 2 : 0);

        Reg rr[3];
        int nr = 0;
        inst.readRegs(rr, nr);
        for (int k = 0; k < nr; ++k)
            op.readMask |= 1u << rr[k];
    }

    // Fusion pass: adjacent straight-line ops whose (kind, kind) pair
    // has a fused handler dispatch as one. Only the first op's handler
    // changes — its TKind and the second op stay untouched, so any
    // entry at the second index (delay-slot dispatch cannot occur here,
    // but computed jumps and trap returns can land anywhere) still runs
    // the standalone semantics. Pairs never span a control group, and
    // greedy pairing restarts at every static join point so the fused
    // path stays aligned with actual control flow.
    {
        std::vector<char> grp(static_cast<size_t>(n), 0);
        std::vector<char> leader(static_cast<size_t>(n), 0);
        for (int i = 0; i < n; ++i) {
            if (!isControl(code[i].op))
                continue;
            for (int k = i; k < std::min(i + 3, n); ++k)
                grp[k] = 1;
        }
        leader[unit.entry] = 1;
        if (tu->arithTrap >= 0)
            leader[tu->arithTrap] = 1;
        if (tu->tagTrap >= 0)
            leader[tu->tagTrap] = 1;
        for (int i = 0; i < n; ++i) {
            const Instruction &inst = code[i];
            if (isControl(inst.op) && inst.op != Opcode::Jr &&
                inst.op != Opcode::Jalr)
                leader[inst.target] = 1;
            // Trap returns re-enter at the faulting index + 1 (under
            // memory tagging every load and store can trap).
            const bool traps =
                inst.op == Opcode::Ldt || inst.op == Opcode::Stt ||
                inst.op == Opcode::Addt || inst.op == Opcode::Subt ||
                (hw.memTagging &&
                 (inst.op == Opcode::Ld || inst.op == Opcode::St));
            if (traps && i + 1 < n)
                leader[i + 1] = 1;
        }
        auto fusedKind = [](uint8_t a, uint8_t b) -> int {
            switch (a) {
              case TAddi:
                return b == TSt ? TF_Addi_St
                       : b == TLd ? TF_Addi_Ld : -1;
              case TSt:
                return b == TLd   ? TF_St_Ld
                       : b == TSt ? TF_St_St
                       : b == TLi ? TF_St_Li : -1;
              case TAnd:
                return b == TLd ? TF_And_Ld : -1;
              case TLd:
                switch (b) {
                  case TSrli: return TF_Ld_Srli;
                  case TAddi: return TF_Ld_Addi;
                  case TAnd:  return TF_Ld_And;
                  case TLd:   return TF_Ld_Ld;
                  case TLi:   return TF_Ld_Li;
                  case TSlli: return TF_Ld_Slli;
                  default:    return -1;
                }
              case TMov:
                return b == TLd ? TF_Mov_Ld : -1;
              case TSlli:
                return b == TSrai ? TF_Slli_Srai : -1;
              default:
                return -1;
            }
        };
        for (int i = 0; i + 1 < n;) {
            if (grp[i] || grp[i + 1] || leader[i + 1]) {
                ++i;
                continue;
            }
            const int fk = fusedKind(tu->ops[i].kind, tu->ops[i + 1].kind);
            if (fk >= 0) {
                tu->ops[i].handler = labels[fk];
                i += 2;
            } else {
                ++i;
            }
        }
    }

    // Sentinel: falling off the end dispatches to the pc-out-of-range
    // handler instead of reading past the array.
    TranslatedOp &end = tu->ops[n];
    end.kind = TEnd;
    end.handler = labels[TEnd];
    end.idx = static_cast<uint32_t>(n);

    return {std::move(tu), ""};
}

} // namespace mxl
