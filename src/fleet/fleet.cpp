#include "fleet/fleet.hpp"

#include <utility>

namespace comt::fleet {

Fleet::Fleet(registry::Registry& hub, FleetOptions options)
    : hub_(hub), options_(std::move(options)) {
  if (options_.replicas == 0) options_.replicas = 1;
  metrics_ = options_.metrics != nullptr ? options_.metrics : &own_metrics_;
  store_ = options_.store != nullptr ? options_.store
                                     : std::make_shared<store::MemStore>();
  journals_ = std::make_unique<durable::JournalStore>(store_);
  if (options_.faults != nullptr) journals_->set_fault_injector(options_.faults);
  if (options_.chunked_artifacts) {
    transfer::ChunkStore::Options chunk_options;
    chunk_options.params = options_.chunk_params;
    chunks_ = std::make_shared<transfer::ChunkStore>(store_, std::move(chunk_options));
    chunks_->set_observer(options_.tracer, metrics_);
    // From here on every hub push (each replica publishes its rebuilt images
    // through hub_) dedups at chunk granularity against the shared substrate.
    hub_.enable_chunk_dedup(chunks_);
  }

  for (std::size_t i = 0; i < options_.replicas; ++i) {
    const std::string replica_id = "replica" + std::to_string(i);
    LeaseCoordinator::Options lease;
    lease.replica_id = replica_id;
    lease.ttl = options_.lease_ttl;
    lease.max_wait = options_.lease_max_wait;
    auto coordinator = std::make_unique<LeaseCoordinator>(store_, &hub_, lease);
    coordinator->set_observer(options_.tracer, metrics_);

    service::ServiceOptions service;
    service.queue_capacity = options_.queue_capacity;
    service.workers_per_system = options_.workers_per_system;
    service.rebuild_threads = options_.rebuild_threads;
    service.max_attempts = options_.max_attempts;
    service.sleep_on_backoff = options_.sleep_on_backoff;
    service.default_tenant = options_.default_tenant;
    service.tenants = options_.tenants;
    service.faults = options_.faults;
    service.journals = journals_.get();
    service.store = store_;
    service.coordinator = coordinator.get();
    service.replica_id = replica_id;
    service.tracer = options_.tracer;
    service.metrics = metrics_;
    replicas_.push_back(std::make_unique<service::RebuildService>(hub_, std::move(service)));
    coordinators_.push_back(std::move(coordinator));
  }
}

Fleet::~Fleet() { drain(); }

Status Fleet::add_system(const std::string& fingerprint,
                         const service::TargetSystem& target) {
  for (auto& replica : replicas_) {
    COMT_TRY_STATUS(replica->add_system(fingerprint, target));
  }
  return Status::success();
}

Result<FleetTicket> Fleet::submit(const service::SubmitRequest& request) {
  const std::size_t replica =
      next_replica_.fetch_add(1, std::memory_order_relaxed) % replicas_.size();
  return submit_to(replica, request);
}

Result<FleetTicket> Fleet::submit_to(std::size_t replica,
                                     const service::SubmitRequest& request) {
  if (replica >= replicas_.size()) {
    return make_error(Errc::invalid_argument,
                      "fleet: no such replica " + std::to_string(replica));
  }
  COMT_TRY(service::Ticket ticket, replicas_[replica]->submit(request));
  return FleetTicket{replica, ticket};
}

Result<service::TicketStatus> Fleet::status(const FleetTicket& ticket) const {
  if (ticket.replica >= replicas_.size()) {
    return make_error(Errc::invalid_argument,
                      "fleet: no such replica " + std::to_string(ticket.replica));
  }
  return replicas_[ticket.replica]->status(ticket.ticket);
}

Result<service::TicketStatus> Fleet::wait(const FleetTicket& ticket) const {
  if (ticket.replica >= replicas_.size()) {
    return make_error(Errc::invalid_argument,
                      "fleet: no such replica " + std::to_string(ticket.replica));
  }
  return replicas_[ticket.replica]->wait(ticket.ticket);
}

void Fleet::pause() {
  for (auto& replica : replicas_) replica->pause();
}

void Fleet::resume() {
  for (auto& replica : replicas_) replica->resume();
}

void Fleet::drain() {
  for (auto& replica : replicas_) replica->drain();
}

Result<service::RecoveryReport> Fleet::recover(std::size_t replica) {
  if (replica >= replicas_.size()) {
    return make_error(Errc::invalid_argument,
                      "fleet: no such replica " + std::to_string(replica));
  }
  return replicas_[replica]->recover();
}

FleetStats Fleet::stats() const {
  FleetStats out;
  out.submitted = metrics_->counter_value("service.submitted");
  out.coalesced = metrics_->counter_value("service.coalesced");
  out.succeeded = metrics_->counter_value("service.succeeded");
  out.failed = metrics_->counter_value("service.failed");
  out.throttled = metrics_->counter_value("service.throttled");
  out.crashed = metrics_->counter_value("service.crashed");
  out.fleet_reused = metrics_->counter_value("service.fleet_reused");
  out.coordinator_errors = metrics_->counter_value("service.coordinator_errors");
  out.leases_acquired = metrics_->counter_value("fleet.lease.acquired");
  out.lease_steals = metrics_->counter_value("fleet.lease.steals");
  out.lease_waits = metrics_->counter_value("fleet.lease.waits");
  out.lease_wait_ms = metrics_->gauge_value("fleet.lease.wait_ms");
  out.cache_remote_hits = metrics_->counter_value("compile_cache.remote_hits");
  out.transfer_chunks_hit = metrics_->counter_value("transfer.chunks_hit");
  out.transfer_chunks_miss = metrics_->counter_value("transfer.chunks_miss");
  out.transfer_bytes_moved = metrics_->counter_value("transfer.bytes_moved");
  out.transfer_bytes_deduped = metrics_->counter_value("transfer.bytes_deduped");
  return out;
}

}  // namespace comt::fleet
