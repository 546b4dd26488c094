#include "src/virt/vssd.h"

#include <cassert>

namespace fleetio {

Vssd::Vssd(FlashDevice &dev, HarvestedBlockTable &hbt, const Config &cfg,
           GcEngine::Hooks gc_hooks)
    : cfg_(cfg),
      ftl_(dev, Ftl::Config{cfg.id, cfg.quota_blocks, cfg.channels}),
      gc_(dev, ftl_, hbt, std::move(gc_hooks)),
      latency_(cfg.slo)
{
}

VssdManager::VssdManager(FlashDevice &dev, HarvestedBlockTable &hbt)
    : dev_(dev), hbt_(hbt)
{
}

Vssd &
VssdManager::create(const Vssd::Config &cfg)
{
    assert(cfg.id == vssds_.size() && "vSSD ids must be created densely");
    GcEngine::Hooks hooks;
    hooks.ftl_of = [this](VssdId id) -> Ftl * {
        Vssd *v = get(id);
        return v ? &v->ftl() : nullptr;
    };
    hooks.on_erased = [this](ChannelId ch, ChipId chip, BlockId blk) {
        if (on_erased_)
            on_erased_(ch, chip, blk);
    };
    vssds_.push_back(std::make_unique<Vssd>(dev_, hbt_, cfg,
                                            std::move(hooks)));
    alive_.push_back(true);
    return *vssds_.back();
}

void
VssdManager::deallocate(VssdId id)
{
    if (id >= vssds_.size() || !alive_[id])
        return;
    vssds_[id]->ftl().trimAll();
    vssds_[id]->gc().requestReclaim();
    alive_[id] = false;
}

Vssd *
VssdManager::get(VssdId id)
{
    if (id >= vssds_.size())
        return nullptr;
    return vssds_[id].get();
}

const Vssd *
VssdManager::get(VssdId id) const
{
    if (id >= vssds_.size())
        return nullptr;
    return vssds_[id].get();
}

std::vector<Vssd *>
VssdManager::active()
{
    std::vector<Vssd *> out;
    out.reserve(vssds_.size());
    for (std::size_t i = 0; i < vssds_.size(); ++i) {
        if (alive_[i])
            out.push_back(vssds_[i].get());
    }
    return out;
}

std::vector<const Vssd *>
VssdManager::active() const
{
    std::vector<const Vssd *> out;
    out.reserve(vssds_.size());
    for (std::size_t i = 0; i < vssds_.size(); ++i) {
        if (alive_[i])
            out.push_back(vssds_[i].get());
    }
    return out;
}

}  // namespace fleetio
