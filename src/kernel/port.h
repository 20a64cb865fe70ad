// Ports: globally named message queues (Section 1.1).
//
// A port may have any number of senders and receivers; messages are
// variable-length word arrays. Ports provide communication between threads
// that share no memory object, and blocking synchronization.
#ifndef SRC_KERNEL_PORT_H_
#define SRC_KERNEL_PORT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/base/discipline_lock.h"
#include "src/base/thread_annotations.h"
#include "src/sim/fiber.h"
#include "src/sim/time.h"

namespace platinum::kernel {

class Kernel;

class Port {
 public:
  uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }

 private:
  friend class Kernel;

  struct Message {
    std::vector<uint32_t> words;
    // Virtual time at which the message body has arrived in the queue.
    sim::SimTime ready_at = 0;
  };

  Port(uint32_t id, std::string name) : id_(id), name_(std::move(name)) {}

  const uint32_t id_;
  const std::string name_;
  // The port lock of the real kernel: message queue and receiver list form
  // one critical section, and a receiver must leave it before blocking
  // (Kernel::Receive). Zero-cost under fiber serialization.
  base::DisciplineLock queue_lock_;
  std::deque<Message> queue_ GUARDED_BY(queue_lock_);
  std::deque<sim::Fiber*> waiting_receivers_ GUARDED_BY(queue_lock_);
};

}  // namespace platinum::kernel

#endif  // SRC_KERNEL_PORT_H_
