#include "analysis/cfg.h"

#include <algorithm>
#include <set>

#include "common/check.h"

namespace sealpk::analysis {

namespace {

// Reads the little-endian word at `pc`, or returns false when the segment
// does not cover all four bytes.
bool word_at(const isa::Segment& seg, u64 pc, u32* out) {
  if (pc < seg.addr || pc + 4 > seg.addr + seg.bytes.size()) return false;
  const u64 off = pc - seg.addr;
  *out = static_cast<u32>(seg.bytes[off]) |
         static_cast<u32>(seg.bytes[off + 1]) << 8 |
         static_cast<u32>(seg.bytes[off + 2]) << 16 |
         static_cast<u32>(seg.bytes[off + 3]) << 24;
  return true;
}

struct Terminator {
  bool terminates = false;
  BlockExit exit = BlockExit::kFallthrough;
  bool has_target = false;   // branch/jump target inside the function
  u64 target = 0;
  bool has_fallthrough = false;
  bool is_call = false;      // records inst target as a call
  u64 call_target = 0;
};

Terminator classify(const Site& site, u64 func_start, u64 func_end) {
  Terminator t;
  const isa::Inst& inst = site.inst;
  const u64 pc = site.pc;
  if (isa::is_branch(inst.op)) {
    t.terminates = true;
    t.exit = BlockExit::kBranch;
    t.has_fallthrough = true;
    const u64 target = pc + static_cast<u64>(inst.imm);
    if (target >= func_start && target < func_end) {
      t.has_target = true;
      t.target = target;
    }
    return t;
  }
  switch (inst.op) {
    case isa::Op::kJal: {
      t.terminates = true;
      const u64 target = pc + static_cast<u64>(inst.imm);
      const bool internal = target >= func_start && target < func_end;
      if (inst.rd != isa::zero) {
        // A call: control returns to pc+4. Intra-function jal_to(l, ra)
        // also lands here, which is safe (the target leader still exists).
        t.exit = BlockExit::kCall;
        t.has_fallthrough = true;
        t.is_call = true;
        t.call_target = target;
        if (internal) {
          t.has_target = true;
          t.target = target;
        }
      } else if (internal) {
        t.exit = BlockExit::kJump;
        t.has_target = true;
        t.target = target;
      } else {
        t.exit = BlockExit::kTailCall;
        t.is_call = true;
        t.call_target = target;
      }
      return t;
    }
    case isa::Op::kJalr:
      t.terminates = true;
      if (inst.rd == isa::zero && inst.rs1 == isa::ra && inst.imm == 0) {
        t.exit = BlockExit::kReturn;
      } else if (inst.rd != isa::zero) {
        // Indirect call: assume it returns.
        t.exit = BlockExit::kIndirect;
        t.has_fallthrough = true;
      } else {
        t.exit = BlockExit::kIndirect;
      }
      return t;
    case isa::Op::kEcall:
    case isa::Op::kEbreak:
      // The kernel resumes at pc+4 (or never, for exit — conservatively a
      // fallthrough edge).
      t.terminates = true;
      t.exit = BlockExit::kTrap;
      t.has_fallthrough = true;
      return t;
    case isa::Op::kIllegal:
      t.terminates = true;
      t.exit = BlockExit::kIllegal;
      return t;
    default:
      return t;
  }
}

FunctionCfg build_function(const std::string& name, u64 start, u64 end,
                           const isa::Segment& seg) {
  FunctionCfg cfg;
  cfg.name = name;
  cfg.start = start;
  cfg.end = end;

  // Decode linearly.
  std::vector<Site> sites;
  sites.reserve((end - start) / 4);
  for (u64 pc = start; pc + 4 <= end; pc += 4) {
    u32 word = 0;
    if (!word_at(seg, pc, &word)) break;
    sites.push_back(Site{pc, isa::decode(word)});
  }
  if (sites.empty()) return cfg;

  // Leaders: the entry, every internal control-transfer target, and every
  // instruction after a terminator.
  std::set<u64> leaders;
  leaders.insert(start);
  for (const Site& site : sites) {
    const Terminator t = classify(site, start, end);
    if (!t.terminates) continue;
    if (t.has_target) leaders.insert(t.target);
    if (site.pc + 4 < end) leaders.insert(site.pc + 4);
  }

  // Form blocks.
  for (const Site& site : sites) {
    if (leaders.contains(site.pc) || cfg.blocks.empty()) {
      cfg.block_at[site.pc] = static_cast<u32>(cfg.blocks.size());
      cfg.blocks.emplace_back();
      cfg.blocks.back().start = site.pc;
    }
    cfg.blocks.back().insts.push_back(site);
  }

  // Successor edges.
  for (u32 bi = 0; bi < cfg.blocks.size(); ++bi) {
    BasicBlock& bb = cfg.blocks[bi];
    const Site& last = bb.insts.back();
    const Terminator t = classify(last, start, end);
    bb.exit = t.terminates ? t.exit : BlockExit::kFallthrough;
    if (t.is_call) cfg.call_targets.push_back(t.call_target);
    if (t.exit == BlockExit::kIndirect) cfg.has_indirect_jump = true;
    auto link = [&](u64 pc) {
      auto it = cfg.block_at.find(pc);
      if (it != cfg.block_at.end()) bb.succs.push_back(it->second);
    };
    if (t.terminates) {
      if (t.has_target) link(t.target);
      if (t.has_fallthrough) link(last.pc + 4);
    } else {
      link(last.pc + 4);  // plain fallthrough into the next block
    }
  }

  // Reachability from the entry block.
  std::vector<u32> work{0};
  cfg.blocks[0].reachable = true;
  while (!work.empty()) {
    const u32 bi = work.back();
    work.pop_back();
    for (const u32 succ : cfg.blocks[bi].succs) {
      if (!cfg.blocks[succ].reachable) {
        cfg.blocks[succ].reachable = true;
        work.push_back(succ);
      }
    }
  }
  return cfg;
}

}  // namespace

const FunctionCfg* ImageCfg::function_at(u64 pc) const {
  auto it = std::upper_bound(
      starts.begin(), starts.end(), std::make_pair(pc, ~u32{0}));
  if (it == starts.begin()) return nullptr;
  --it;
  const FunctionCfg& f = functions[it->second];
  return pc >= f.start && pc < f.end ? &f : nullptr;
}

const FunctionCfg* ImageCfg::function_named(const std::string& name) const {
  for (const auto& f : functions)
    if (f.name == name) return &f;
  return nullptr;
}

ImageCfg build_cfg(const isa::Image& image) {
  ImageCfg out;
  for (const auto& seg : image.segments) {
    if (!seg.exec) continue;
    const u64 seg_end = seg.addr + seg.bytes.size();
    // Functions covering this segment, in address order.
    std::vector<std::pair<u64, std::pair<u64, std::string>>> ranges;
    for (const auto& [name, range] : image.func_ranges) {
      if (range.first >= seg.addr && range.first < seg_end) {
        ranges.push_back({range.first, {range.second, name}});
      }
    }
    std::sort(ranges.begin(), ranges.end());
    u64 cursor = seg.addr;
    auto add = [&](const std::string& name, u64 start, u64 end) {
      if (end <= start) return;
      out.functions.push_back(build_function(name, start, end, seg));
    };
    for (const auto& [start, rest] : ranges) {
      if (start > cursor) {
        // Executable bytes no function claims: decode them anyway — a
        // gadget hiding between functions is still a gadget.
        add("<unattributed>", cursor, start);
      }
      add(rest.second, start, std::min(rest.first, seg_end));
      cursor = std::max(cursor, rest.first);
    }
    if (cursor < seg_end) add("<unattributed>", cursor, seg_end);
  }
  for (u32 i = 0; i < out.functions.size(); ++i) {
    out.starts.push_back({out.functions[i].start, i});
  }
  std::sort(out.starts.begin(), out.starts.end());
  return out;
}

}  // namespace sealpk::analysis
