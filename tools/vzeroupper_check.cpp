// vzeroupper-check: no AVX function leaves with dirty upper YMM halves.
//
// Code compiled for `target("avx2")` that writes a YMM register must run
// `vzeroupper` before it hands control to code that may use legacy SSE
// encodings: left dirty, the upper halves slow every later SSE
// instruction on the thread until the next `vzeroupper`.  GCC inserts it
// before a `ret`, but not always before a tail call (`jmp` to another
// function), nor on every path to a `ret` after a call to a plain
// function.  This tool disassembles object files with `objdump -dr` and
// follows each function's control flow: from the function's entry, an
// instruction naming a YMM (or ZMM) register makes the state dirty and
// `vzeroupper`/`vzeroall` makes it clean, through fall-through and
// in-function jumps.  An exit reached dirty is an error: a `ret`, a
// jump (conditional or not) to another symbol or through a relocation
// (a tail call), or an indirect jump.
//
// Usage: vzeroupper_check <objdump> <object>...
// Exit 0 = clean, 1 = a dirty exit (each one printed), 77 = no objdump
// (ctest reports a skip), 2 = usage or disassembly error.
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

namespace {

constexpr int kSkip = 77;

struct Insn {
    std::uint64_t addr = 0;
    std::string mnemonic;
    std::string operands;
    bool tail_reloc = false;  ///< A PC-relative relocation follows it.
};

struct Function {
    std::string name;
    std::vector<Insn> insns;
};

/// Split "<mnemonic> <operands>" after dropping prefixes such as `bnd`,
/// `notrack` or `rep`, and any trailing `# comment`.
void split_insn(const std::string& text, Insn& insn) {
    static const std::set<std::string> kPrefixes = {
        "bnd", "notrack", "rep", "repz", "repnz", "lock", "data16", "cs",
        "ds"};
    std::istringstream in(text.substr(0, text.find('#')));
    std::string token;
    while (in >> token && kPrefixes.count(token) != 0) {
    }
    insn.mnemonic = token;
    std::getline(in, insn.operands);
}

/// Parse `objdump -dr --no-show-raw-insn` output into functions.
std::vector<Function> parse(std::istream& in) {
    std::vector<Function> functions;
    std::string line;
    while (std::getline(in, line)) {
        // Function header: "0000000000000410 <name>:".
        if (!line.empty() && line.back() == ':' &&
            line.find(" <") != std::string::npos &&
            std::isxdigit(static_cast<unsigned char>(line[0]))) {
            const std::size_t open = line.find(" <");
            functions.push_back(
                {line.substr(open + 2, line.size() - open - 4), {}});
            continue;
        }
        if (functions.empty()) continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos) continue;
        const std::string head = line.substr(0, colon);
        const std::size_t digits = head.find_first_not_of(" \t");
        if (digits == std::string::npos ||
            head.find_first_not_of("0123456789abcdef", digits) !=
                std::string::npos)
            continue;
        const std::string rest = line.substr(colon + 1);
        std::vector<Insn>& insns = functions.back().insns;
        // Relocation: "\t\t\t169b: R_X86_64_PLT32\tgetenv-0x4".
        if (rest.find("R_X86_64_PLT32") != std::string::npos ||
            rest.find("R_X86_64_PC32") != std::string::npos) {
            if (!insns.empty()) insns.back().tail_reloc = true;
            continue;
        }
        if (rest.empty() || rest[0] != '\t') continue;
        Insn insn;
        insn.addr = std::stoull(head.substr(digits), nullptr, 16);
        split_insn(rest.substr(1), insn);
        if (!insn.mnemonic.empty()) insns.push_back(std::move(insn));
    }
    return functions;
}

bool is_jump(const std::string& m) { return !m.empty() && m[0] == 'j'; }

/// Where a direct jump goes: "4ab <fn+0x9b>" names `fn` at 0x4ab.
struct Target {
    bool in_function = false;
    std::uint64_t addr = 0;
};

Target jump_target(const Insn& insn, const std::string& function) {
    const std::string& ops = insn.operands;
    const std::size_t first = ops.find_first_not_of(" \t");
    if (first == std::string::npos || ops[first] == '*' || insn.tail_reloc)
        return {};
    const std::size_t open = ops.find('<', first);
    const std::size_t close = ops.rfind('>');
    if (open == std::string::npos || close == std::string::npos) return {};
    std::string symbol = ops.substr(open + 1, close - open - 1);
    const std::size_t plus = symbol.rfind("+0x");
    if (plus != std::string::npos) symbol.resize(plus);
    if (symbol != function) return {};
    return {true, std::stoull(ops.substr(first, open - first), nullptr, 16)};
}

/// Report every exit of `fn` reachable with dirty upper halves; returns
/// their count.
int check(const Function& fn) {
    const std::vector<Insn>& insns = fn.insns;
    const auto index_of = [&](std::uint64_t addr) -> std::size_t {
        for (std::size_t i = 0; i < insns.size(); ++i)
            if (insns[i].addr == addr) return i;
        return insns.size();
    };
    // dirty_in[i]: instruction i can be reached with dirty upper halves.
    std::vector<bool> reached(insns.size(), false);
    std::vector<bool> dirty_in(insns.size(), false);
    std::vector<std::size_t> work;
    const auto visit = [&](std::size_t i, bool dirty) {
        if (i >= insns.size()) return;
        if (reached[i] && (dirty_in[i] || !dirty)) return;
        reached[i] = true;
        dirty_in[i] = dirty_in[i] || dirty;
        work.push_back(i);
    };
    visit(0, false);
    int dirty_exits = 0;
    std::set<std::size_t> reported;
    while (!work.empty()) {
        const std::size_t i = work.back();
        work.pop_back();
        const Insn& insn = insns[i];
        const std::string& m = insn.mnemonic;
        bool dirty = dirty_in[i];
        if (m == "vzeroupper" || m == "vzeroall") {
            dirty = false;
        } else if (insn.operands.find("%ymm") != std::string::npos ||
                   insn.operands.find("%zmm") != std::string::npos) {
            dirty = true;
        }
        const bool ret = m.rfind("ret", 0) == 0;
        const Target target = is_jump(m) ? jump_target(insn, fn.name)
                                         : Target{};
        const bool exit = ret || (is_jump(m) && !target.in_function);
        if (exit && dirty && reported.insert(i).second) {
            std::cout << fn.name << ": " << std::hex << insn.addr << std::dec
                      << ": " << m << insn.operands
                      << " leaves with dirty upper YMM halves (no "
                         "vzeroupper on this path)\n";
            ++dirty_exits;
        }
        if (target.in_function) visit(index_of(target.addr), dirty);
        const bool jmp = m.rfind("jmp", 0) == 0;
        if (!ret && !jmp && m != "ud2") visit(i + 1, dirty);
    }
    return dirty_exits;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 3) {
        std::cerr << "usage: vzeroupper_check <objdump> <object>...\n";
        return 2;
    }
    const std::string objdump = argv[1];
    if (objdump.empty() || objdump.ends_with("NOTFOUND") ||
        ::access(objdump.c_str(), X_OK) != 0) {
        std::cout << "objdump not found; skipping the vzeroupper check\n";
        return kSkip;
    }
    int dirty_exits = 0;
    std::size_t functions_with_ymm = 0;
    for (int a = 2; a < argc; ++a) {
        const std::string command =
            "'" + objdump + "' -dr --no-show-raw-insn '" + argv[a] + "'";
        std::unique_ptr<FILE, int (*)(FILE*)> pipe(
            ::popen(command.c_str(), "r"), ::pclose);
        if (!pipe) {
            std::cerr << "cannot run " << command << '\n';
            return 2;
        }
        std::string text;
        char buf[4096];
        while (const std::size_t n =
                   std::fread(buf, 1, sizeof(buf), pipe.get()))
            text.append(buf, n);
        if (::pclose(pipe.release()) != 0) {
            std::cerr << command << " failed\n";
            return 2;
        }
        std::istringstream in(text);
        const std::vector<Function> functions = parse(in);
        if (functions.empty()) {
            std::cerr << argv[a] << ": no functions disassembled\n";
            return 2;
        }
        for (const Function& fn : functions) {
            for (const Insn& insn : fn.insns)
                if (insn.operands.find("%ymm") != std::string::npos) {
                    ++functions_with_ymm;
                    break;
                }
            dirty_exits += check(fn);
        }
    }
    std::cout << functions_with_ymm << " function(s) use YMM registers, "
              << dirty_exits << " dirty exit(s)\n";
    return dirty_exits == 0 ? 0 : 1;
}
