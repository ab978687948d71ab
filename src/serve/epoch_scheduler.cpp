#include "serve/epoch_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace dwatch::serve {

void EpochReports::add(std::size_t array, const rfid::RoAccessReport& report) {
  for (const rfid::TagObservation& obs : report.observations) {
    samples_.insert(samples_.end(), obs.samples.begin(), obs.samples.end());
    observations_.push_back(Observation{obs.epc, obs.antenna_port,
                                        obs.first_seen_us, samples_.size()});
  }
  reports_.push_back(Report{array, observations_.size()});
}

void EpochReports::reserve(const Extent& extent) {
  reports_.reserve(extent.reports);
  observations_.reserve(extent.observations);
  samples_.reserve(extent.samples);
}

rfid::ObservationView EpochReports::observation(std::size_t i) const {
  const Observation& obs = observations_[i];
  const std::size_t begin = i == 0 ? 0 : observations_[i - 1].samples_end;
  return {obs.epc, obs.antenna_port, obs.first_seen_us,
          std::span<const rfid::PhaseSample>(samples_).subspan(
              begin, obs.samples_end - begin)};
}

EpochScheduler::EpochScheduler(std::size_t num_zones,
                               std::size_t max_queue_per_zone)
    : queues_(num_zones),
      max_queue_per_zone_(std::max<std::size_t>(1, max_queue_per_zone)) {}

std::size_t EpochScheduler::add_zone() {
  std::lock_guard<std::mutex> lock(mutex_);
  queues_.emplace_back();
  return queues_.size() - 1;
}

void EpochScheduler::set_shed_hook(ShedHook hook) {
  std::lock_guard<std::mutex> lock(mutex_);
  shed_hook_ = std::move(hook);
}

std::size_t EpochScheduler::submit(PendingEpoch epoch) {
  // The victim (if any) is moved out here and its hook fired after the
  // lock is released: a hook may scrape this scheduler or even submit.
  PendingEpoch victim;
  bool have_victim = false;
  ShedHook hook_copy;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (epoch.zone >= queues_.size()) {
      throw std::out_of_range("serve::EpochScheduler: no such zone");
    }
    epoch.seq = next_seq_++;
    ++submitted_;
    ++submitted_by_class_[static_cast<std::size_t>(epoch.traffic_class)];
    auto& queue = queues_[epoch.zone];
    if (queue.size() >= max_queue_per_zone_) {
      // Pick the victim class-aware: never an anchor; lowest-priority
      // class present first; within a class the oldest seq (so for
      // uniform-class traffic this is exactly the old oldest-first
      // policy). The incoming epoch competes too — it has the newest
      // seq, so it only loses when it is the strictly lowest class.
      std::size_t victim_idx = queue.size();  // == incoming sentinel
      TrafficClass victim_cls = epoch.traffic_class;
      std::uint64_t victim_seq = epoch.seq;
      bool found = epoch.traffic_class != TrafficClass::kAnchor;
      for (std::size_t i = 0; i < queue.size(); ++i) {
        const PendingEpoch& cand = queue[i];
        if (cand.traffic_class == TrafficClass::kAnchor) continue;
        const bool worse_class =
            static_cast<std::uint8_t>(cand.traffic_class) >
            static_cast<std::uint8_t>(victim_cls);
        const bool same_class_older =
            cand.traffic_class == victim_cls && cand.seq < victim_seq;
        if (!found || worse_class || same_class_older) {
          victim_idx = i;
          victim_cls = cand.traffic_class;
          victim_seq = cand.seq;
          found = true;
        }
      }
      if (found) {
        ++shed_;
        ++shed_by_class_[static_cast<std::size_t>(victim_cls)];
        have_victim = true;
        if (victim_idx == queue.size()) {
          victim = std::move(epoch);
        } else {
          victim = std::move(queue[victim_idx]);
          queue.erase(queue.begin() +
                      static_cast<std::ptrdiff_t>(victim_idx));
          queue.push_back(std::move(epoch));
        }
        hook_copy = shed_hook_;
      } else {
        // Nothing sheddable: every queued epoch and the incoming one
        // are anchor class. Calibration must not be dropped — admit
        // over the cap and let the next drain absorb the burst.
        queue.push_back(std::move(epoch));
      }
    } else {
      queue.push_back(std::move(epoch));
    }
  }
  if (have_victim && hook_copy) hook_copy(victim);
  return have_victim ? 1 : 0;
}

std::size_t EpochScheduler::purge_class(TrafficClass cls) {
  std::vector<PendingEpoch> purged;
  ShedHook hook_copy;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& queue : queues_) {
      for (auto it = queue.begin(); it != queue.end();) {
        if (it->traffic_class == cls) {
          purged.push_back(std::move(*it));
          it = queue.erase(it);
        } else {
          ++it;
        }
      }
    }
    shed_ += purged.size();
    shed_by_class_[static_cast<std::size_t>(cls)] += purged.size();
    if (!purged.empty()) hook_copy = shed_hook_;
  }
  if (hook_copy) {
    for (const PendingEpoch& epoch : purged) hook_copy(epoch);
  }
  return purged.size();
}

std::size_t EpochScheduler::run_pending(core::ThreadPool* pool,
                                        const Processor& processor) {
  // Move the queues out under the lock, then drain with the lock
  // RELEASED: the processor runs pipelines for milliseconds and may
  // fire observers that scrape this scheduler. Moving out first also
  // keeps the drain loop stable if a processor (against the contract)
  // submits new epochs — they simply wait for the next call.
  std::vector<std::deque<PendingEpoch>> batches;
  std::vector<std::size_t> active;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batches.resize(queues_.size());
    for (std::size_t z = 0; z < queues_.size(); ++z) {
      if (queues_[z].empty()) continue;
      batches[z] = std::move(queues_[z]);
      queues_[z].clear();
      active.push_back(z);
    }
  }
  if (active.empty()) return 0;

  std::size_t count = 0;
  for (const std::size_t z : active) count += batches[z].size();

  const auto drain_zone = [&](std::size_t zone) {
    auto& batch = batches[zone];
    while (!batch.empty()) {
      PendingEpoch epoch = std::move(batch.front());
      batch.pop_front();
      processor(std::move(epoch));
    }
  };

  if (pool != nullptr && active.size() > 1) {
    pool->parallel_for(active.size(),
                       [&](std::size_t i) { drain_zone(active[i]); });
  } else {
    for (const std::size_t z : active) drain_zone(z);
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    processed_ += count;
  }
  return count;
}

std::size_t EpochScheduler::num_zones() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queues_.size();
}

std::size_t EpochScheduler::pending(std::size_t zone) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (zone >= queues_.size()) {
    throw std::out_of_range("serve::EpochScheduler: no such zone");
  }
  return queues_[zone].size();
}

std::size_t EpochScheduler::total_pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& q : queues_) total += q.size();
  return total;
}

std::uint64_t EpochScheduler::submitted_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return submitted_;
}

std::uint64_t EpochScheduler::processed_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return processed_;
}

std::uint64_t EpochScheduler::shed_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_;
}

std::uint64_t EpochScheduler::submitted_by_class(TrafficClass cls) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return submitted_by_class_[static_cast<std::size_t>(cls)];
}

std::uint64_t EpochScheduler::shed_by_class(TrafficClass cls) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_by_class_[static_cast<std::size_t>(cls)];
}

}  // namespace dwatch::serve
