#include "src/kernel/kernel.h"

#include <bit>
#include <utility>

#include "src/base/check.h"
#include "src/check/race_detector.h"
#include "src/mem/protocol.h"
#include "src/obs/page_trace.h"
#include "src/obs/scope.h"

namespace platinum::kernel {

Kernel::Kernel(sim::Machine* machine, KernelOptions options)
    : machine_(machine), default_as_pages_(options.address_space_pages) {
  PLAT_CHECK(machine_ != nullptr);
  std::unique_ptr<mem::ReplicationPolicy> policy = std::move(options.policy);
  if (policy == nullptr) {
    policy = std::make_unique<mem::TimestampPolicy>(machine_->params().t1_freeze_window_ns);
  }
  memory_ = std::make_unique<mem::CoherentMemory>(
      machine_, std::move(policy),
      mem::MakeProtocol(options.protocol, options.tardis_lease_ns,
                        options.tardis_lease_policy));
  page_shift_ = static_cast<uint32_t>(std::countr_zero(machine_->params().page_size_bytes));
  if (options.start_defrost_daemon) {
    memory_->StartDefrostDaemon();
  }
}

Kernel::~Kernel() = default;

vm::MemoryObject* Kernel::CreateMemoryObject(std::string name, uint32_t pages,
                                             int home_module) {
  auto object = std::make_unique<vm::MemoryObject>(static_cast<uint32_t>(objects_.size()),
                                                   std::move(name), pages);
  for (uint32_t i = 0; i < pages; ++i) {
    int home = home_module >= 0 ? home_module : -1;
    object->set_cpage(i, memory_->CreateCpage(home));
  }
  objects_.push_back(std::move(object));
  return objects_.back().get();
}

vm::AddressSpace* Kernel::CreateAddressSpace(std::string name, uint32_t num_pages) {
  if (num_pages == 0) {
    num_pages = default_as_pages_;
  }
  uint32_t as_id = memory_->RegisterAddressSpace(num_pages);
  auto space = std::make_unique<vm::AddressSpace>(as_id, std::move(name), num_pages);
  PLAT_CHECK_EQ(space->id(), static_cast<uint32_t>(spaces_.size()));
  spaces_.push_back(std::move(space));
  return spaces_.back().get();
}

void Kernel::Map(vm::AddressSpace* space, vm::MemoryObject* object, uint32_t object_page,
                 uint32_t num_pages, uint32_t vpn, hw::Rights rights) {
  PLAT_CHECK(space != nullptr);
  PLAT_CHECK(object != nullptr);
  space->AddBinding(vm::Binding{object, object_page, num_pages, vpn, rights});
  for (uint32_t i = 0; i < num_pages; ++i) {
    memory_->BindPage(space->id(), vpn + i, object->cpage(object_page + i), rights);
  }
}

void Kernel::Unmap(vm::AddressSpace* space, uint32_t vpn, uint32_t num_pages) {
  PLAT_CHECK(space != nullptr);
  space->RemoveBinding(vpn, num_pages);
  for (uint32_t i = 0; i < num_pages; ++i) {
    memory_->UnbindPage(space->id(), vpn + i);
  }
}

Thread* Kernel::SpawnThread(vm::AddressSpace* space, int processor, std::string name,
                            std::function<void()> body) {
  PLAT_CHECK(space != nullptr);
  auto owned = std::unique_ptr<Thread>(
      new Thread(this, static_cast<uint32_t>(threads_.size()), name, space, processor));
  Thread* thread = owned.get();
  threads_.push_back(std::move(owned));

  sim::Fiber* fiber = machine_->scheduler().Spawn(
      processor, std::move(name), [this, thread, body = std::move(body)] {
        // The thread's whole lifetime becomes a span on its processor's
        // track in the exported trace.
        obs::ObsScope span(*machine_, thread->name());
        machine_->Compute(machine_->params().thread_spawn_ns);
        memory_->Activate(thread->address_space().id(), thread->processor_);
        body();
        memory_->Deactivate(thread->address_space().id(), thread->processor_);
        if (race_detector_ != nullptr) {
          race_detector_->OnThreadFinish(machine_->scheduler().current()->id());
        }
      });
  thread->fiber_ = fiber;
  thread_by_fiber_[fiber] = thread;
  if (race_detector_ != nullptr) {
    // The spawner's clock reaches the child before it can run (Spawn only
    // enqueues the fiber).
    sim::Fiber* parent = machine_->scheduler().current();
    race_detector_->OnThreadSpawn(parent != nullptr ? parent->id() : mem::kNoFiber,
                                  fiber->id());
  }
  return thread;
}

Thread* Kernel::CurrentThread() {
  sim::Fiber* fiber = machine_->scheduler().current();
  if (fiber == nullptr) {
    return nullptr;
  }
  auto it = thread_by_fiber_.find(fiber);
  return it != thread_by_fiber_.end() ? it->second : nullptr;
}

void Kernel::JoinThread(Thread* thread) {
  PLAT_CHECK(thread != nullptr);
  PLAT_CHECK(thread->fiber_ != nullptr);
  machine_->scheduler().Join(thread->fiber_);
  if (race_detector_ != nullptr) {
    sim::Fiber* joiner = machine_->scheduler().current();
    race_detector_->OnThreadJoin(joiner != nullptr ? joiner->id() : mem::kNoFiber,
                                 thread->fiber_->id());
  }
}

void Kernel::Run() { machine_->scheduler().Run(); }

void Kernel::MigrateCurrentThread(Thread* thread, int new_processor) {
  PLAT_CHECK(CurrentThread() == thread) << "a thread may only migrate itself";
  if (new_processor == thread->processor_) {
    return;
  }
  const sim::MachineParams& params = machine_->params();
  // Fixed kernel cost plus moving the kernel stack with the thread
  // (Section 2.2's special handling of kernel stacks in coherent memory).
  machine_->Compute(params.thread_migrate_fixed_ns +
                    static_cast<sim::SimTime>(params.words_per_page()) *
                        params.block_copy_word_ns);
  int old_processor = thread->processor_;
  memory_->Deactivate(thread->address_space().id(), old_processor);
  machine_->scheduler().MigrateCurrent(new_processor);
  thread->processor_ = new_processor;
  memory_->Activate(thread->address_space().id(), new_processor);
}

template <typename Update>
uint32_t Kernel::AtomicReadModifyWrite(vm::AddressSpace* space, uint32_t va, Update update) {
  VaParts parts = Split(va);
  // Fibers only interleave at yield points, so a read immediately followed by
  // a write (both with yielding suppressed) is atomic, modeling the
  // Butterfly's atomic remote operations.
  mem::CoherentMemory::AccessResult read = memory_->Access(
      space->id(), parts.vpn, parts.word_offset, sim::AccessKind::kRead, 0,
      /*allow_yield=*/false);
  PLAT_CHECK(read.outcome == mem::AccessOutcome::kOk);
  mem::CoherentMemory::AccessResult write =
      memory_->Access(space->id(), parts.vpn, parts.word_offset, sim::AccessKind::kWrite,
                      update(read.value), /*allow_yield=*/true);
  PLAT_CHECK(write.outcome == mem::AccessOutcome::kOk);
  return read.value;
}

uint32_t Kernel::AtomicFetchAdd(vm::AddressSpace* space, uint32_t va, uint32_t delta) {
  return AtomicReadModifyWrite(space, va, [delta](uint32_t v) { return v + delta; });
}

uint32_t Kernel::AtomicTestAndSet(vm::AddressSpace* space, uint32_t va) {
  return AtomicReadModifyWrite(space, va, [](uint32_t) { return 1u; });
}

void Kernel::AdviseMemory(vm::AddressSpace* space, uint32_t va, uint32_t bytes,
                          mem::MemoryAdvice advice) {
  PLAT_CHECK(space != nullptr);
  PLAT_CHECK_GT(bytes, 0u);
  uint32_t first = VpnOf(va);
  uint32_t last = VpnOf(va + bytes - 1);
  memory_->Advise(space->id(), first, last - first + 1, advice);
}

void Kernel::PinMemory(vm::AddressSpace* space, uint32_t va, int node) {
  PLAT_CHECK(space != nullptr);
  memory_->PinTo(space->id(), VpnOf(va), node);
}

void Kernel::ReplicateMemory(vm::AddressSpace* space, uint32_t va, int node) {
  PLAT_CHECK(space != nullptr);
  memory_->ReplicateTo(space->id(), VpnOf(va), node);
}

void Kernel::ThawMemory(vm::AddressSpace* space, uint32_t va) {
  PLAT_CHECK(space != nullptr);
  const mem::CmapEntry& entry = memory_->cmap(space->id()).entry(VpnOf(va));
  PLAT_CHECK(entry.bound()) << "thaw of unbound va " << va;
  memory_->Thaw(entry.cpage);
}

Port* Kernel::CreatePort(std::string name) {
  ports_.push_back(
      std::unique_ptr<Port>(new Port(static_cast<uint32_t>(ports_.size()), std::move(name))));
  return ports_.back().get();
}

void Kernel::Send(Port* port, std::span<const uint32_t> message) {
  PLAT_CHECK(port != nullptr);
  const sim::MachineParams& params = machine_->params();
  machine_->Compute(params.port_fixed_ns +
                    static_cast<sim::SimTime>(message.size()) * params.port_word_ns);
  Port::Message queued;
  queued.words.assign(message.begin(), message.end());
  queued.ready_at = machine_->scheduler().now();
  // Queue and receiver list form one critical section; the wake-up happens
  // outside it (Wake only enqueues, but keeping switch-capable calls out of
  // critical sections is the discipline platlint enforces).
  port->queue_lock_.Acquire();
  port->queue_.push_back(std::move(queued));
  sim::Fiber* receiver = nullptr;
  if (!port->waiting_receivers_.empty()) {
    receiver = port->waiting_receivers_.front();
    port->waiting_receivers_.pop_front();
  }
  port->queue_lock_.Release();
  if (receiver != nullptr) {
    machine_->scheduler().Wake(receiver, machine_->scheduler().now());
  }
}

std::vector<uint32_t> Kernel::Receive(Port* port) {
  PLAT_CHECK(port != nullptr);
  sim::Scheduler& sched = machine_->scheduler();
  PLAT_CHECK(sched.current() != nullptr) << "Receive must be called from a thread";
  // The paper's kernel discipline: a receiver finding the queue empty
  // registers itself and *releases the port lock before blocking* — blocking
  // inside the critical section would deadlock the real machine (and, here,
  // let another fiber observe a half-updated queue).
  for (;;) {
    port->queue_lock_.Acquire();
    if (!port->queue_.empty()) {
      Port::Message message = std::move(port->queue_.front());
      port->queue_.pop_front();
      port->queue_lock_.Release();
      sched.AdvanceTo(message.ready_at);
      machine_->Compute(machine_->params().port_fixed_ns);
      return std::move(message.words);
    }
    port->waiting_receivers_.push_back(sched.current());
    port->queue_lock_.Release();
    sched.Block();
  }
}

check::RaceDetector& Kernel::EnableRaceDetection() {
  if (race_detector_ != nullptr) {
    return *race_detector_;
  }
  race_detector_ = std::make_unique<check::RaceDetector>(
      [this](uint32_t as_id, uint32_t vpn) -> std::string {
        if (as_id < spaces_.size()) {
          const vm::Binding* binding = spaces_[as_id]->FindBinding(vpn);
          if (binding != nullptr) {
            return binding->object->name();
          }
        }
        return "?";
      });
  memory_->SetAccessObserver(race_detector_.get());
  for (const WordRange& range : sync_word_ranges_) {
    ForwardSyncWords(range);
  }
  for (const WordRange& range : intentional_ranges_) {
    ForwardIntentionalSharing(range);
  }
  return *race_detector_;
}

void Kernel::AttachPageTrace(obs::PageTrace* trace) {
  PLAT_CHECK(trace != nullptr);
  memory_->SetPageEventSink(trace);
}

void Kernel::ForwardSyncWords(const WordRange& range) {
  for (uint32_t i = 0; i < range.count; ++i) {
    VaParts parts = Split(range.va + i * 4);
    race_detector_->RegisterSyncWord(range.as_id, parts.vpn, parts.word_offset);
  }
}

void Kernel::ForwardIntentionalSharing(const WordRange& range) {
  for (uint32_t i = 0; i < range.count; ++i) {
    VaParts parts = Split(range.va + i * 4);
    race_detector_->MarkIntentionalSharing(range.as_id, parts.vpn, parts.word_offset);
  }
}

void Kernel::RegisterSyncWords(vm::AddressSpace* space, uint32_t va, uint32_t count) {
  PLAT_CHECK(space != nullptr);
  PLAT_CHECK_GT(count, 0u);
  WordRange range{space->id(), va, count};
  sync_word_ranges_.push_back(range);
  if (race_detector_ != nullptr) {
    ForwardSyncWords(range);
  }
}

void Kernel::AnnotateIntentionalSharing(vm::AddressSpace* space, uint32_t va,
                                        uint32_t bytes) {
  PLAT_CHECK(space != nullptr);
  PLAT_CHECK_GT(bytes, 0u);
  WordRange range{space->id(), va, (bytes + 3) / 4};
  intentional_ranges_.push_back(range);
  if (race_detector_ != nullptr) {
    ForwardIntentionalSharing(range);
  }
}

vm::MemoryObject* Kernel::FindMemoryObject(const std::string& name) {
  for (const auto& object : objects_) {
    if (object->name() == name) {
      return object.get();
    }
  }
  return nullptr;
}

Port* Kernel::FindPort(const std::string& name) {
  for (const auto& port : ports_) {
    if (port->name() == name) {
      return port.get();
    }
  }
  return nullptr;
}

}  // namespace platinum::kernel
