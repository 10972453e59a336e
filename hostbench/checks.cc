#include "checks.hh"

#include <map>
#include <regex>
#include <sstream>

#include "harness/workloads.hh"
#include "workloads/registry.hh"

namespace hostbench {

using interp::harness::Lang;

namespace {

// The guest programs' parameters, restated: programs/*/spin.*,
// matmul.*, rxmatch.* and the rxmatch.in input the harness installs.
constexpr int kSpinN = 1500;
constexpr int kMatN = 8;
constexpr int kMatReps = 2;
constexpr size_t kRxLines = 40;

std::string
expectSpin()
{
    int c = 0;
    for (int i = 0; i < kSpinN; ++i)
        c = (c * 33 + (i & 7)) % 65521;
    return "spin checksum=" + std::to_string(c) +
           " n=" + std::to_string(kSpinN) + "\n";
}

std::string
expectMatmul()
{
    const int n = kMatN;
    std::vector<int> a(n * n), b(n * n), c(n * n);
    int sum = 0;
    for (int r = 0; r < kMatReps; ++r) {
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j) {
                a[i * n + j] = (i * 7 + j * 3 + r) % 13;
                b[i * n + j] = (i * 5 + j * 11 + r) % 17;
            }
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j) {
                int s = 0;
                for (int k = 0; k < n; ++k)
                    s += a[i * n + k] * b[k * n + j];
                c[i * n + j] = s;
            }
        for (int i = 0; i < n * n; ++i)
            sum = (sum + c[i]) % 100003;
    }
    return "mat checksum=" + std::to_string(sum) +
           " n=" + std::to_string(n) +
           " reps=" + std::to_string(kMatReps) + "\n";
}

std::string
expectRxmatch()
{
    // The guests run a hand-written backtracking matcher; std::regex
    // is an independent implementation of the same four patterns.
    static const std::regex pats[4] = {
        std::regex("the"), std::regex("^set"), std::regex("fe.*ch"),
        std::regex("ing$")};
    std::istringstream in(interp::harness::rxmatchInput(kRxLines));
    std::string line;
    int lines = 0, total = 0, hits[4] = {0, 0, 0, 0};
    while (std::getline(in, line)) {
        ++lines;
        for (int p = 0; p < 4; ++p)
            if (std::regex_search(line, pats[p])) {
                ++hits[p];
                ++total;
            }
    }
    std::ostringstream out;
    out << "rx lines=" << lines << " p0=" << hits[0] << " p1=" << hits[1]
        << " p2=" << hits[2] << " p3=" << hits[3] << " total=" << total
        << "\n";
    return out.str();
}

bool
endsWith(const std::string &s, const std::string &tail)
{
    return s.size() >= tail.size() &&
           s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

std::string
mismatch(const std::string &what, const std::string &got)
{
    std::string shown = got.substr(0, 80);
    for (char &c : shown)
        if (c == '\n')
            c = '|';
    return what + " (got \"" + shown + "\")";
}

} // namespace

std::string
checkRow(const std::string &name, Lang lang, const std::string &out)
{
    static const std::string spin = expectSpin();
    static const std::string matmul = expectMatmul();
    static const std::string rxmatch = expectRxmatch();

    if (name == "spin")
        return out == spin ? "" : mismatch("spin checksum differs", out);
    if (name == "matmul")
        return out == matmul ? "" : mismatch("matmul checksum differs", out);
    if (name == "rxmatch")
        return out == rxmatch ? "" : mismatch("rxmatch counts differ", out);
    if (name == "kanren")
        return ""; // checked across languages only
    if (name == "des")
        return out.rfind("des checksum=", 0) == 0 &&
                       endsWith(out, " roundtrip=1\n")
                   ? ""
                   : mismatch("des round trip failed", out);
    const interp::workloads::Workload *w = interp::workloads::find(name);
    if (!w)
        return "unknown workload " + name;
    if (!interp::workloads::goldenMatches(*w, lang, out))
        return mismatch(name + " differs from the registry golden", out);
    return "";
}

void
checkAcrossLanguages(std::vector<RowOutput> &rows)
{
    static const char *shared[] = {"rxmatch", "kanren", "matmul", "spin"};
    for (const char *name : shared) {
        std::map<std::string, int> outputs;
        for (const RowOutput &r : rows)
            if (r.name == name)
                ++outputs[r.stdoutText];
        if (outputs.size() <= 1)
            continue;
        for (RowOutput &r : rows)
            if (r.name == name && r.failure.empty())
                r.failure = std::string(name) +
                            ": languages print different output";
    }
}

} // namespace hostbench
