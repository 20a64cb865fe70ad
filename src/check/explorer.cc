#include "src/check/explorer.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/check/oracle.h"
#include "src/kernel/kernel.h"
#include "src/sim/machine.h"

namespace platinum::check {
namespace {

struct Event {
  enum class Kind : uint8_t { kRead, kWrite, kThaw };
  Kind kind = Kind::kRead;
  int processor = 0;  // unused for thaw (host-initiated, like the daemon)
  int page = 0;
};

// A freshly booted machine for one replayed interleaving. Declaration order
// matters: the kernel (and the oracle holding its memory hook) must be torn
// down before the machine.
struct System {
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<kernel::Kernel> kernel;
  vm::AddressSpace* space = nullptr;
  std::unique_ptr<InvariantOracle> oracle;
};

System Boot(const ExplorerConfig& config) {
  System sys;
  sim::MachineParams params = sim::ButterflyPlusParams(config.processors);
  params.frames_per_module = 8;  // tiny machine: a few pages suffice
  sys.machine = std::make_unique<sim::Machine>(params);

  kernel::KernelOptions options;
  options.policy = mem::MakePolicy(config.policy, params.t1_freeze_window_ns);
  options.protocol = config.protocol;
  options.start_defrost_daemon = false;  // thaws are explicit alphabet events
  options.address_space_pages = 64;      // keeps each invariant sweep cheap
  sys.kernel = std::make_unique<kernel::Kernel>(sys.machine.get(), std::move(options));

  sys.space = sys.kernel->CreateAddressSpace("explore");
  vm::MemoryObject* object = sys.kernel->CreateMemoryObject(
      "explore-pages", static_cast<uint32_t>(config.pages));
  sys.kernel->Map(sys.space, object, 0, static_cast<uint32_t>(config.pages), /*vpn=*/0,
                  hw::Rights::kReadWrite);
  if (config.advice != mem::MemoryAdvice::kDefault) {
    sys.kernel->memory().Advise(sys.space->id(), 0, static_cast<uint32_t>(config.pages),
                                config.advice);
  }
  sys.oracle = std::make_unique<InvariantOracle>(&sys.kernel->memory());
  return sys;
}

// Applies one event: reads and writes run as a one-access thread on the
// event's processor; thaw runs host-side, as the defrost daemon would.
void Apply(System& sys, const Event& event, int seq) {
  uint32_t va = static_cast<uint32_t>(event.page) * sys.kernel->page_size();
  switch (event.kind) {
    case Event::Kind::kThaw:
      sys.kernel->ThawMemory(sys.space, va);
      break;
    case Event::Kind::kRead:
      sys.kernel->SpawnThread(sys.space, event.processor, "explore-read",
                              [&sys, va] { sys.kernel->ReadWord(sys.space, va); });
      sys.kernel->Run();
      break;
    case Event::Kind::kWrite:
      sys.kernel->SpawnThread(sys.space, event.processor, "explore-write", [&sys, va, seq] {
        sys.kernel->WriteWord(sys.space, va, static_cast<uint32_t>(seq) + 1);
      });
      sys.kernel->Run();
      break;
  }
}

// The protocol-visible abstraction of the current state.
std::string Abstract(System& sys, const ExplorerConfig& config) {
  std::ostringstream out;
  mem::CoherentMemory& memory = sys.kernel->memory();
  const mem::Cmap& cm = memory.cmap(sys.space->id());
  for (int page = 0; page < config.pages; ++page) {
    const mem::CmapEntry& entry = cm.entry(static_cast<uint32_t>(page));
    const mem::Cpage& cpage = memory.cpages().at(entry.cpage);
    out << static_cast<int>(cpage.state()) << (cpage.frozen() ? 'F' : '-');
    // The replication policy's latent state: whether the page has ever been
    // invalidated, and whether that invalidation is still within the t1
    // window at the representative's virtual time. Without this, the path
    // that makes a page "hot" (and so freezes on the next fault) would be
    // merged into the cold path that reaches the same directory state.
    char pressure = 'c';  // cold
    if (cpage.ever_invalidated()) {
      sim::SimTime now = sys.kernel->Now();
      bool hot = now < cpage.last_invalidation() ||
                 now - cpage.last_invalidation() <
                     sys.machine->params().t1_freeze_window_ns;
      pressure = hot ? 'h' : 'q';  // hot / quiescent
    }
    out << pressure;
    for (int m = 0; m < config.processors; ++m) {
      out << (cpage.HasCopyOn(m) ? '1' : '0');
    }
    for (int p = 0; p < config.processors; ++p) {
      const hw::Pmap* pmap = cm.find_pmap(p);
      const hw::PmapEntry pe =
          pmap != nullptr ? pmap->entry(static_cast<uint32_t>(page)) : hw::PmapEntry{};
      out << (!pe.valid ? 'n' : pe.rights == hw::Rights::kReadWrite ? 'w' : 'r');
    }
    out << ';';
  }
  return out.str();
}

std::vector<bool> FrozenFlags(System& sys, const ExplorerConfig& config) {
  std::vector<bool> frozen(static_cast<size_t>(config.pages), false);
  mem::CoherentMemory& memory = sys.kernel->memory();
  mem::Cmap& cm = memory.cmap(sys.space->id());
  for (int page = 0; page < config.pages; ++page) {
    const mem::CmapEntry& entry = cm.entry(static_cast<uint32_t>(page));
    frozen[static_cast<size_t>(page)] = memory.cpages().at(entry.cpage).frozen();
  }
  return frozen;
}

std::vector<mem::CpageState> PageStates(System& sys, const ExplorerConfig& config) {
  std::vector<mem::CpageState> states(static_cast<size_t>(config.pages));
  mem::CoherentMemory& memory = sys.kernel->memory();
  mem::Cmap& cm = memory.cmap(sys.space->id());
  for (int page = 0; page < config.pages; ++page) {
    const mem::CmapEntry& entry = cm.entry(static_cast<uint32_t>(page));
    states[static_cast<size_t>(page)] = memory.cpages().at(entry.cpage).state();
  }
  return states;
}

mem::ProtocolTrigger TriggerOf(Event::Kind kind) {
  switch (kind) {
    case Event::Kind::kRead:
      return mem::ProtocolTrigger::kRead;
    case Event::Kind::kWrite:
      return mem::ProtocolTrigger::kWrite;
    case Event::Kind::kThaw:
      return mem::ProtocolTrigger::kThaw;
  }
  PLAT_CHECK(false) << "unreachable";
  return mem::ProtocolTrigger::kRead;
}

}  // namespace

std::string ExplorerResult::Summary() const {
  std::ostringstream out;
  out << states_visited << " abstract states, " << transitions_explored
      << " transitions replayed, " << oracle_checks
      << " oracle checks, max depth " << max_depth_reached << ": "
      << (exhaustive ? "state space closed (exhaustive)"
                     : "truncated by the depth bound");
  return out.str();
}

ExplorerResult ExploreProtocol(const ExplorerConfig& config) {
  PLAT_CHECK_GE(config.processors, 1);
  PLAT_CHECK_GE(config.pages, 1);
  PLAT_CHECK_GE(config.max_depth, 1);

  struct Node {
    std::vector<Event> path;    // shortest event sequence reaching the state
    std::vector<bool> frozen;   // per-page frozen flag (prunes thaw events)
    std::vector<mem::CpageState> states;  // per-page state (edge recording)
  };

  mem::ProtocolKind kind;
  PLAT_CHECK(mem::ProtocolKindFromName(config.protocol.c_str(), &kind))
      << "unknown explorer protocol '" << config.protocol << "'";

  ExplorerResult result;
  // std::map keeps the visited set's behavior independent of hash order.
  std::map<std::string, uint64_t> visited;
  std::deque<Node> frontier;
  std::set<mem::ProtocolEdge> edges;
  bool truncated = false;

  auto note_states = [&result](const std::vector<mem::CpageState>& states) {
    for (mem::CpageState s : states) {
      result.state_mask_seen |= 1u << static_cast<unsigned>(s);
    }
  };

  auto replay = [&config](const std::vector<Event>& path) {
    System sys = Boot(config);
    int seq = 0;
    for (const Event& event : path) {
      Apply(sys, event, seq++);
    }
    return sys;
  };

  {
    System sys = Boot(config);
    visited.emplace(Abstract(sys, config), 0);
    result.states_visited = 1;
    result.oracle_checks += sys.oracle->transitions_checked();
    std::vector<mem::CpageState> states = PageStates(sys, config);
    note_states(states);
    frontier.push_back(Node{{}, FrozenFlags(sys, config), std::move(states)});
  }

  while (!frontier.empty()) {
    Node node = std::move(frontier.front());
    frontier.pop_front();
    int depth = static_cast<int>(node.path.size());
    result.max_depth_reached = std::max(result.max_depth_reached, depth);
    if (depth >= config.max_depth) {
      truncated = true;  // unexpanded state: coverage is no longer exhaustive
      continue;
    }

    std::vector<Event> alphabet;
    for (int page = 0; page < config.pages; ++page) {
      for (int p = 0; p < config.processors; ++p) {
        alphabet.push_back(Event{Event::Kind::kRead, p, page});
        alphabet.push_back(Event{Event::Kind::kWrite, p, page});
      }
      if (node.frozen[static_cast<size_t>(page)]) {
        alphabet.push_back(Event{Event::Kind::kThaw, 0, page});
      }
    }

    for (const Event& event : alphabet) {
      std::vector<Event> path = node.path;
      path.push_back(event);
      System sys = replay(path);
      ++result.transitions_explored;
      result.oracle_checks += sys.oracle->transitions_checked();
      // Record the (trigger, from, to) edge of every page the event moved
      // (plus the target page's self-edge) and hold it against the spec —
      // the explorer, the oracle, and the implementation share one table.
      std::vector<mem::CpageState> states = PageStates(sys, config);
      note_states(states);
      mem::ProtocolTrigger trigger = TriggerOf(event.kind);
      for (int page = 0; page < config.pages; ++page) {
        mem::CpageState from = node.states[static_cast<size_t>(page)];
        mem::CpageState to = states[static_cast<size_t>(page)];
        if (from == to && page != event.page) {
          continue;
        }
        PLAT_CHECK(mem::ProtocolAllowsEdge(kind, trigger, from, to))
            << "explored an edge outside the " << mem::ProtocolKindName(kind)
            << " spec: page " << page << " moved " << mem::CpageStateName(from) << " -> "
            << mem::CpageStateName(to) << " under '" << mem::ProtocolTriggerName(trigger)
            << "'";
        edges.insert(mem::ProtocolEdge{trigger, from, to});
      }
      std::string abstract = Abstract(sys, config);
      if (visited.emplace(std::move(abstract), result.states_visited).second) {
        ++result.states_visited;
        frontier.push_back(
            Node{std::move(path), FrozenFlags(sys, config), std::move(states)});
      }
    }
  }

  result.observed_edges.assign(edges.begin(), edges.end());
  result.exhaustive = !truncated;
  return result;
}

}  // namespace platinum::check
