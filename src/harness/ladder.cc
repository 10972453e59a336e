#include "harness/ladder.hh"

#include <algorithm>

namespace interp::harness {

std::vector<std::string>
checkLadderContract(const Measurement &base, const Measurement &rung)
{
    std::vector<std::string> broken;
    if (base.stdoutText != rung.stdoutText)
        broken.push_back("stdout");
    if (base.commands != rung.commands)
        broken.push_back("commands");
    if (base.commandNames != rung.commandNames)
        broken.push_back("command names");

    const auto &a = base.profile.perCommand();
    const auto &b = rung.profile.perCommand();
    bool whole_execute = rungOf(rung.lang) <= 1;
    bool retired = true, native = true, execute = true;
    for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
        trace::CommandStats sa = i < a.size() ? a[i] : trace::CommandStats{};
        trace::CommandStats sb = i < b.size() ? b[i] : trace::CommandStats{};
        retired &= sa.retired == sb.retired;
        native &= sa.nativeLib == sb.nativeLib;
        execute &= whole_execute ? sa.execute == sb.execute
                                 : sa.execute - sa.memModel ==
                                       sb.execute - sb.memModel;
    }
    if (!retired)
        broken.push_back("retired");
    if (!native)
        broken.push_back("nativeLib");
    if (!execute)
        broken.push_back(whole_execute ? "execute" : "execute-memModel");

    uint64_t fd_base = base.profile.fetchDecodeInsts();
    uint64_t fd_rung = rung.profile.fetchDecodeInsts();
    if (fd_rung > fd_base)
        broken.push_back("fetch/decode");
    if (fd_rung + rung.profile.memModelInsts() >
        fd_base + base.profile.memModelInsts())
        broken.push_back("fetch/decode+memModel");
    return broken;
}

} // namespace interp::harness
