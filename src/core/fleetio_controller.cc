#include "src/core/fleetio_controller.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <stdexcept>

#include "src/core/env.h"
#include "src/core/teacher.h"

namespace fleetio {

namespace {

/** Fine-tune (PPO update) cadence in decision windows (§4.7: 10). */
constexpr int kTrainIntervalWindows = 10;

/** Compact trace code for an action: low 2 bits = priority level,
 *  bit 2 = harvesting, bit 3 = donating. */
std::uint64_t
actionCode(const AgentAction &a)
{
    return std::uint64_t(a.priority) |
           (a.harvest_bw_mbps > 0 ? 4u : 0u) |
           (a.harvestable_bw_mbps > 0 ? 8u : 0u);
}

/**
 * FLEETIO_CHECKPOINT_INTERVAL_WINDOWS, validated like the other env
 * knobs: a strictly positive decimal integer with no trailing garbage.
 * Anything else falls back to @p fallback.
 */
int
checkpointIntervalFromEnv(int fallback)
{
    return int(envLong("FLEETIO_CHECKPOINT_INTERVAL_WINDOWS", fallback,
                       1, 1000000000L));
}

}  // namespace

FleetIoController::FleetIoController(const FleetIoConfig &cfg,
                                     EventQueue &eq, VssdManager &vssds,
                                     GsbManager &gsb)
    : cfg_(cfg),
      eq_(eq),
      vssds_(vssds),
      gsb_(gsb),
      admission_(gsb, eq, cfg_.admission_batch),
      extractor_(cfg_, vssds.device().geometry())
{
    const std::string err = cfg_.validate();
    if (!err.empty())
        throw std::invalid_argument("FleetIoConfig: " + err);
    if (cfg_.supervisor.enabled) {
        supervisor_ =
            std::make_unique<AgentSupervisor>(cfg_.supervisor, gsb_);
    }
    if (const char *dir = std::getenv("FLEETIO_CHECKPOINT_DIR");
        dir != nullptr && *dir != '\0') {
        checkpoint_dir_ = dir;
        checkpoint_interval_ = checkpointIntervalFromEnv(200);
    }
}

void
FleetIoController::attachStore(Managed &m)
{
    if (checkpoint_dir_.empty()) {
        m.store.reset();
        return;
    }
    m.store = std::make_unique<rl::CheckpointStore>(
        checkpoint_dir_ + "/agent-" + std::to_string(m.vssd->id()) +
        ".ckpt");
}

FleetIoAgent &
FleetIoController::addVssd(Vssd &vssd, double alpha)
{
    Managed m;
    m.vssd = &vssd;
    m.agent = std::make_unique<FleetIoAgent>(vssd.id(), cfg_,
                                             seed_counter_);
    seed_counter_ = seed_counter_ * 6364136223846793005ull + 1442695040888963407ull;
    m.agent->setAlpha(alpha);
    m.teacher_until = windows_ + std::uint64_t(cfg_.teacher_windows);
    attachStore(m);
    managed_.push_back(std::move(m));
    agents_.push_back(managed_.back().agent.get());
    if (supervisor_ != nullptr)
        supervisor_->attach(*managed_.back().agent, vssd);
    return *managed_.back().agent;
}

bool
FleetIoController::removeVssd(VssdId id)
{
    for (std::size_t i = 0; i < managed_.size(); ++i) {
        if (managed_[i].vssd->id() != id)
            continue;
        if (supervisor_ != nullptr)
            supervisor_->detach(id);
        FLEETIO_OBS(gsb_.device().obs(), agentRemoved(id));
        extractor_.reset(id);
        managed_.erase(managed_.begin() + std::ptrdiff_t(i));
        agents_.clear();
        for (auto &m : managed_)
            agents_.push_back(m.agent.get());
        return true;
    }
    return false;
}

void
FleetIoController::setCheckpointDir(const std::string &dir,
                                    int interval_windows)
{
    checkpoint_dir_ = dir;
    checkpoint_interval_ = std::max(interval_windows, 0);
    for (auto &m : managed_)
        attachStore(m);
}

std::size_t
FleetIoController::saveCheckpoints()
{
    std::size_t saved = 0;
    for (auto &m : managed_) {
        if (m.store == nullptr)
            continue;
        const rl::AgentCheckpoint ckpt = m.agent->snapshot();
        // A diverged agent never overwrites its on-disk last-good.
        if (ckpt.wellFormed() && m.store->save(ckpt))
            ++saved;
    }
    disk_checkpoints_ += saved;
    return saved;
}

std::size_t
FleetIoController::loadCheckpoints()
{
    std::size_t restored = 0;
    for (auto &m : managed_) {
        if (m.store == nullptr)
            continue;
        rl::AgentCheckpoint ckpt;
        if (m.store->load(ckpt) == rl::CheckpointError::kOk &&
            m.agent->restore(ckpt)) {
            ++restored;
        }
    }
    return restored;
}

SupervisionStats
FleetIoController::supervisionStats() const
{
    SupervisionStats s;
    if (supervisor_ != nullptr) {
        s = supervisor_->stats();
    } else {
        for (const auto &m : managed_)
            s.grad_skips += m.agent->trainer().skippedUpdates();
    }
    s.disk_checkpoints = disk_checkpoints_;
    return s;
}

FleetIoAgent *
FleetIoController::agent(VssdId id)
{
    for (auto &m : managed_) {
        if (m.vssd->id() == id)
            return m.agent.get();
    }
    return nullptr;
}

void
FleetIoController::setTraining(bool on)
{
    if (supervisor_ != nullptr) {
        // Route through the watchdog so a quarantined agent stays
        // frozen until its probation ends.
        supervisor_->setTrainingEnabled(on);
        return;
    }
    for (auto &m : managed_)
        m.agent->setTraining(on);
}

void
FleetIoController::setDeterministic(bool on)
{
    for (auto &m : managed_)
        m.agent->setDeterministic(on);
}

void
FleetIoController::setClassifier(const WorkloadClassifier *classifier,
                                 FeatureProvider provider)
{
    classifier_ = classifier;
    feature_provider_ = std::move(provider);
}

void
FleetIoController::start()
{
    if (running_)
        return;
    running_ = true;
    FLEETIO_OBS(gsb_.device().obs(), controllerStarted());
    admission_.start();
    scheduleTick();
}

void
FleetIoController::stop()
{
    running_ = false;
    admission_.stop();
}

void
FleetIoController::scheduleTick()
{
    eq_.scheduleAfter(cfg_.decision_window, [this]() {
        if (!running_)
            return;
        tick();
        scheduleTick();
    });
}

double
FleetIoController::lifetimeMeanReward(VssdId id) const
{
    for (const auto &m : managed_) {
        if (m.vssd->id() == id && m.reward_count > 0)
            return m.reward_sum / double(m.reward_count);
    }
    return 0.0;
}

void
FleetIoController::applyAction(Managed &m, const AgentAction &action)
{
    // Set_Priority applies immediately on the vSSD's I/O (§3.3.2).
    m.vssd->setPriority(action.priority);

    // Resource actions go through batched admission control.
    if (action.harvestable_bw_mbps > 0 ||
        gsb_.donatedChannels(m.vssd->id()) > 0) {
        admission_.submit(PendingAction{
            m.vssd->id(), PendingAction::Type::kMakeHarvestable,
            action.harvestable_bw_mbps, 0});
    }
    if (action.harvest_bw_mbps > 0 ||
        gsb_.heldChannels(m.vssd->id()) > 0) {
        admission_.submit(PendingAction{
            m.vssd->id(), PendingAction::Type::kHarvest,
            action.harvest_bw_mbps, 0});
    }
}

void
FleetIoController::tick()
{
    const std::size_t n = managed_.size();
    if (n == 0)
        return;
    ++windows_;
    obs::ObsHub *const hub = gsb_.device().obs();

    // 1. Per-vSSD window metrics (before rolling the windows).
    const SimTime win = cfg_.decision_window;
    std::vector<double> iops(n), vio(n), single(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Vssd &v = *managed_[i].vssd;
        iops[i] = v.bandwidth().windowIops(win);
        vio[i] = v.latency().windowSloViolation();
        single[i] = singleReward(
            v.bandwidth().windowMBps(win),
            v.guaranteedBandwidthMBps(vssds_.device().geometry()),
            vio[i], kSloVioGuar, managed_[i].agent->alpha());
    }

    // 2. Multi-agent blended rewards (Eq. 2).
    const std::vector<double> rewards =
        multiAgentRewards(single, cfg_.beta);

    // 3. Per-agent: credit reward, refresh workload type, build state,
    //    act (teacher-guided during the bootstrap phase), apply. The
    //    bootstrap deadline is per-agent so hot-added tenants clone
    //    the teacher for their own first windows (DESIGN.md §11).
    for (std::size_t i = 0; i < n; ++i) {
        Managed &m = managed_[i];
        FleetIoAgent &agent = *m.agent;

        double reward = rewards[i];
        if (reward_hook_)
            reward = reward_hook_(m.vssd->id(), reward);

        agent.completeTransition(reward);
        m.reward_sum += reward;
        ++m.reward_count;
        FLEETIO_OBS(hub, agentReward(eq_.now(), m.vssd->id(), reward));

        if (classifier_ != nullptr && feature_provider_) {
            if (auto f = feature_provider_(m.vssd->id())) {
                const auto assign =
                    classifier_->classify(f->toVector());
                agent.setAlpha(alphaForCluster(assign.cluster));
            }
        }

        SharedState shared;
        for (std::size_t j = 0; j < n; ++j) {
            if (j == i)
                continue;
            shared.sum_iops += iops[j];
            shared.sum_slo_vio += vio[j];
        }
        extractor_.push(m.vssd->id(),
                        extractor_.windowState(*m.vssd, shared));
        const rl::Vector state = extractor_.stacked(m.vssd->id());

        AgentAction action;
        const bool teacher_phase = windows_ <= m.teacher_until;
        if (teacher_phase && agent.training()) {
            // Bootstrap: execute the heuristic teacher and clone it.
            action = teacherAction(
                *m.vssd, gsb_, vssds_.device().geometry(),
                cfg_.decision_window, cfg_);
            // Value target: discounted return of a steady reward.
            const double vt =
                reward / (1.0 - cfg_.ppo.gamma);
            agent.imitate(state, agent.mapper().encode(action), vt);
        } else if (supervisor_ != nullptr) {
            action = supervisor_->decide(
                m.vssd->id(), state, reward, vio[i]);
        } else {
            action = agent.decide(state);
        }
        FLEETIO_OBS(hub,
                    agentDecide(eq_.now(), m.vssd->id(), actionCode(action)));
        applyAction(m, action);
    }

    // 3b. Close the decision window and surface fresh drift flags
    // (informational only — nothing here feeds back into a decision).
    FLEETIO_OBS(hub, decisionWindow(windows_));
    if (hub != nullptr && supervisor_ != nullptr) {
        for (auto &m : managed_) {
            if (hub->driftFlagged(m.vssd->id()))
                supervisor_->noteDrift(m.vssd->id());
        }
    }

    // 4. Roll the observation windows and nudge GC.
    for (auto &m : managed_) {
        m.vssd->rollWindow();
        m.vssd->gc().maybeStart();
    }

    // 5. Periodic fine-tuning (every kTrainIntervalWindows).
    if (windows_ % std::uint64_t(kTrainIntervalWindows) == 0) {
        for (auto &m : managed_) {
            m.agent->train(extractor_.stacked(m.vssd->id()));
        }
    }

    // 6. Periodic crash-safe checkpoints (FLEETIO_CHECKPOINT_DIR).
    if (checkpoint_interval_ > 0 && !checkpoint_dir_.empty() &&
        windows_ % std::uint64_t(checkpoint_interval_) == 0) {
        saveCheckpoints();
    }
}

}  // namespace fleetio
