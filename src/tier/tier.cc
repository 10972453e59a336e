#include "tier/tier.hh"

namespace interp::tier {

using harness::Lang;

namespace {

std::string
entryKey(Lang mode, const std::string &program)
{
    return std::string(harness::langName(mode)) + "/" + program;
}

} // namespace

TierManager::Entry &
TierManager::entryFor(Lang mode, const std::string &program)
{
    std::unique_ptr<Entry> &slot = entries[entryKey(mode, program)];
    if (!slot)
        slot = std::make_unique<Entry>();
    return *slot;
}

TierPlan
TierManager::plan(Lang mode, const std::string &program)
{
    TierPlan out;
    out.lang = mode;
    if (!cfg.enabled || harness::rungOf(mode) != 0)
        return out;
    Lang remedy = harness::ladderMode(mode, 1);
    if (remedy == mode)
        return out; // no ladder for this mode (C)
    Lang tier2 = harness::ladderMode(mode, 2);
    Lang jitL = harness::ladderMode(mode, 3);

    std::lock_guard<std::mutex> lock(mu);
    Entry &e = entryFor(mode, program);

    ++e.invocations;
    ++e.hotness;
    if (cfg.decayEvery && e.invocations % cfg.decayEvery == 0)
        e.hotness -= e.hotness / 2;

    int target = e.hotness >= cfg.jitAfter     ? 3
                 : e.hotness >= cfg.tier2After  ? 2
                 : e.hotness >= cfg.remedyAfter ? 1
                                                : 0;
    if (target == 3 && jitL == tier2)
        target = 2; // no template backend: tier 2 is the top rung
    std::string key = entryKey(mode, program);
    if (target == 3 && mode == Lang::Mipsi) {
        // mipsi-jit executes through a published stencil program: the
        // guest text is catalog-shared, so one stencil stream serves
        // every invocation. Same aside-build protocol as the jvm
        // artifacts — exactly one request builds and publishes, the
        // rest run the tier below until the store lands.
        if (auto art = e.jitArtifact.load()) {
            out.jitArtifact = std::move(art);
        } else if (!e.buildingJit) {
            e.buildingJit = true;
            out.publishJit =
                [this,
                 key](std::shared_ptr<const jit::JitArtifact> a) {
                    publishJitArtifact(key, std::move(a));
                };
        } else {
            target = 2;
        }
    }
    if (tier2 == remedy && target == 2)
        target = 1; // the remedy is this mode's tier-2 rung

    if (mode == Lang::Java) {
        // jvm tiers execute through published artifacts. When the
        // target tier's artifact is not up yet, exactly one request
        // (the one that flips the building flag) builds it in-run;
        // everyone else keeps running the tier below until the
        // publish lands.
        if (target == 2) {
            if (auto art = e.tier2Artifact.load()) {
                out.artifact = std::move(art);
            } else if (!e.buildingTier2) {
                e.buildingTier2 = true;
                out.pairs =
                    std::make_shared<const jvm::PairProfile>(e.pairs);
                out.publish =
                    [this,
                     key](std::shared_ptr<const jvm::TierArtifact> a) {
                        publishArtifact(key, 2, std::move(a));
                    };
            } else {
                target = 1;
            }
        }
        if (target == 1) {
            if (auto art = e.remedyArtifact.load()) {
                out.artifact = std::move(art);
            } else if (!e.buildingRemedy) {
                e.buildingRemedy = true;
                out.publish =
                    [this,
                     key](std::shared_ptr<const jvm::TierArtifact> a) {
                        publishArtifact(key, 1, std::move(a));
                    };
            } else {
                target = 0;
            }
        }
    }
    if (target == 0)
        out.collectPairs = mode == Lang::Java;

    out.level = target;
    out.lang = target == 3   ? jitL
               : target == 2 ? tier2
               : target == 1 ? remedy
                             : mode;
    if (target >= 1 && e.level < 1) {
        out.promotedRemedy = true;
        ++promotedRemedy_;
    }
    if (target >= 2 && e.level < 2) {
        out.promotedTier2 = true;
        ++promotedTier2_;
    }
    if (target == 3 && e.level < 3) {
        out.promotedJit = true;
        ++promotedJit_;
    }
    if (target > e.level)
        e.level = target;
    return out;
}

void
TierManager::noteRun(Lang mode, const std::string &program,
                     uint64_t commands,
                     const jvm::PairProfile *collected)
{
    if (!cfg.enabled || harness::rungOf(mode) != 0)
        return;
    std::lock_guard<std::mutex> lock(mu);
    Entry &e = entryFor(mode, program);
    if (cfg.commandsPerPoint)
        e.hotness += commands / cfg.commandsPerPoint;
    if (collected)
        e.pairs.merge(*collected);
}

void
TierManager::publishArtifact(const std::string &key, int level,
                             std::shared_ptr<const jvm::TierArtifact> a)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = entries.find(key);
    if (it == entries.end() || !a)
        return;
    Entry &e = *it->second;
    if (level == 2) {
        e.tier2Artifact.store(std::move(a));
        e.buildingTier2 = false;
    } else {
        e.remedyArtifact.store(std::move(a));
        e.buildingRemedy = false;
    }
    ++artifactsPublished_;
}

void
TierManager::publishJitArtifact(const std::string &key,
                                std::shared_ptr<const jit::JitArtifact> a)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = entries.find(key);
    if (it == entries.end() || !a)
        return;
    Entry &e = *it->second;
    e.jitArtifact.store(std::move(a));
    e.buildingJit = false;
    ++artifactsPublished_;
}

TierManager::Snapshot
TierManager::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu);
    Snapshot s;
    s.entries = entries.size();
    s.promotedRemedy = promotedRemedy_;
    s.promotedTier2 = promotedTier2_;
    s.promotedJit = promotedJit_;
    s.artifactsPublished = artifactsPublished_;
    return s;
}

} // namespace interp::tier
