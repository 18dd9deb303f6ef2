#include "mc/ir.hpp"

#include <sstream>

#include "util/check.hpp"

namespace srm::mc {
namespace {

int intern(std::vector<std::string>& names, const std::string& n) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == n) return static_cast<int>(i);
  }
  names.push_back(n);
  return static_cast<int>(names.size() - 1);
}

}  // namespace

bool blocking(OpKind k) {
  return k == OpKind::await_eq || k == OpKind::await_ne ||
         k == OpKind::await_ge || k == OpKind::wait_dec || k == OpKind::recv;
}

bool is_access(OpKind k) { return k == OpKind::read || k == OpKind::write; }

int Program::var(const std::string& n, std::uint64_t init) {
  int id = intern(var_names, n);
  if (static_cast<std::size_t>(id) == var_init.size()) {
    var_init.push_back(init);
  } else {
    SRM_CHECK_MSG(var_init[static_cast<std::size_t>(id)] == init,
                  "var '" << n << "' re-declared with different initial");
  }
  return id;
}

int Program::buf(const std::string& n) { return intern(buf_names, n); }
int Program::chan(const std::string& n) { return intern(chan_names, n); }

int Program::thread(const std::string& n) {
  int id = find_thread(n);
  if (id >= 0) return id;
  threads.push_back(Thread{n, {}});
  return static_cast<int>(threads.size() - 1);
}

int Program::find_thread(const std::string& n) const {
  for (std::size_t i = 0; i < threads.size(); ++i) {
    if (threads[i].name == n) return static_cast<int>(i);
  }
  return -1;
}

void Program::window(int b, int pub_var, int done_var, int owner_tid) {
  windows.push_back(Window{b, pub_var, done_var, owner_tid});
}

void Program::serves(int adapter_tid, int owner_tid) {
  threads.at(static_cast<std::size_t>(adapter_tid)).serves = owner_tid;
}

void Program::push(int tid, Op op) {
  threads.at(static_cast<std::size_t>(tid)).ops.push_back(std::move(op));
}

void Program::set(int tid, int v, std::uint64_t val) {
  push(tid, Op{OpKind::set, v, val, 0,
               var_names.at(static_cast<std::size_t>(v)) + ":=" +
                   std::to_string(val)});
}

void Program::add(int tid, int v, std::uint64_t delta) {
  push(tid, Op{OpKind::add, v, delta, 0,
               var_names.at(static_cast<std::size_t>(v)) + "+=" +
                   std::to_string(delta)});
}

void Program::await_eq(int tid, int v, std::uint64_t val) {
  push(tid, Op{OpKind::await_eq, v, val, 0,
               "await " + var_names.at(static_cast<std::size_t>(v)) + "==" +
                   std::to_string(val)});
}

void Program::await_ne(int tid, int v, std::uint64_t val) {
  push(tid, Op{OpKind::await_ne, v, val, 0,
               "await " + var_names.at(static_cast<std::size_t>(v)) + "!=" +
                   std::to_string(val)});
}

void Program::await_ge(int tid, int v, std::uint64_t val) {
  push(tid, Op{OpKind::await_ge, v, val, 0,
               "await " + var_names.at(static_cast<std::size_t>(v)) + ">=" +
                   std::to_string(val)});
}

void Program::wait_dec(int tid, int v, std::uint64_t val) {
  push(tid, Op{OpKind::wait_dec, v, val, 0,
               "waitdec " + var_names.at(static_cast<std::size_t>(v)) + "-" +
                   std::to_string(val)});
}

void Program::write(int tid, int b, std::uint64_t lo, std::uint64_t hi) {
  push(tid, Op{OpKind::write, b, lo, hi,
               "write " + buf_names.at(static_cast<std::size_t>(b)) + "[" +
                   std::to_string(lo) + "," + std::to_string(hi) + ")"});
}

void Program::read(int tid, int b, std::uint64_t lo, std::uint64_t hi) {
  push(tid, Op{OpKind::read, b, lo, hi,
               "read " + buf_names.at(static_cast<std::size_t>(b)) + "[" +
                   std::to_string(lo) + "," + std::to_string(hi) + ")"});
}

void Program::send(int tid, int c) {
  push(tid, Op{OpKind::send, c, 0, 0,
               "send " + chan_names.at(static_cast<std::size_t>(c))});
}

void Program::recv(int tid, int c) {
  push(tid, Op{OpKind::recv, c, 0, 0,
               "recv " + chan_names.at(static_cast<std::size_t>(c))});
}

std::size_t Program::total_ops() const {
  std::size_t n = 0;
  for (const Thread& t : threads) n += t.ops.size();
  return n;
}

void Program::validate() const {
  SRM_CHECK_MSG(var_names.size() == var_init.size(),
                "program '" << name << "': var table corrupt");
  for (const Thread& t : threads) {
    for (const Op& op : t.ops) {
      int limit = is_access(op.kind) ? static_cast<int>(buf_names.size())
                  : (op.kind == OpKind::send || op.kind == OpKind::recv)
                      ? static_cast<int>(chan_names.size())
                      : static_cast<int>(var_names.size());
      SRM_CHECK_MSG(op.obj >= 0 && op.obj < limit,
                    "program '" << name << "' thread '" << t.name
                                << "': bad object in op '" << op.label << "'");
      if (is_access(op.kind)) {
        SRM_CHECK_MSG(op.a < op.b, "program '" << name << "': empty access '"
                                               << op.label << "'");
      }
    }
  }
  for (const Thread& t : threads) {
    SRM_CHECK_MSG(t.serves >= -1 && t.serves < static_cast<int>(threads.size()),
                  "program '" << name << "' thread '" << t.name
                              << "': serves no thread");
  }
  for (const Window& w : windows) {
    SRM_CHECK_MSG(w.buf >= 0 && w.buf < static_cast<int>(buf_names.size()) &&
                      w.pub_var >= 0 &&
                      w.pub_var < static_cast<int>(var_names.size()) &&
                      w.done_var >= 0 &&
                      w.done_var < static_cast<int>(var_names.size()) &&
                      w.owner >= 0 &&
                      w.owner < static_cast<int>(threads.size()),
                  "program '" << name << "': bad window registration");
  }
}

std::string Program::to_string() const {
  std::ostringstream os;
  os << "program '" << name << "': " << threads.size() << " threads, "
     << var_names.size() << " vars, " << buf_names.size() << " bufs, "
     << chan_names.size() << " chans, " << total_ops() << " ops\n";
  for (const Thread& t : threads) {
    os << "  " << t.name << ":";
    for (const Op& op : t.ops) os << " [" << op.label << "]";
    os << "\n";
  }
  return os.str();
}

void Program::drop_op(const std::string& thread_name,
                      const std::string& needle) {
  int tid = find_thread(thread_name);
  SRM_CHECK_MSG(tid >= 0, "drop_op: no thread '" << thread_name << "'");
  auto& ops = threads[static_cast<std::size_t>(tid)].ops;
  for (auto it = ops.begin(); it != ops.end(); ++it) {
    if (it->label.find(needle) != std::string::npos) {
      ops.erase(it);
      return;
    }
  }
  SRM_CHECK_MSG(false, "drop_op: no op matching '" << needle << "' in thread '"
                                                   << thread_name << "'");
}

void Program::drop_last_op(const std::string& thread_name,
                           const std::string& needle) {
  int tid = find_thread(thread_name);
  SRM_CHECK_MSG(tid >= 0, "drop_last_op: no thread '" << thread_name << "'");
  auto& ops = threads[static_cast<std::size_t>(tid)].ops;
  for (std::size_t i = ops.size(); i-- > 0;) {
    if (ops[i].label.find(needle) != std::string::npos) {
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
  SRM_CHECK_MSG(false, "drop_last_op: no op matching '"
                           << needle << "' in thread '" << thread_name << "'");
}

void Program::swap_with_prev(const std::string& thread_name,
                             const std::string& needle) {
  int tid = find_thread(thread_name);
  SRM_CHECK_MSG(tid >= 0, "swap_with_prev: no thread '" << thread_name << "'");
  auto& ops = threads[static_cast<std::size_t>(tid)].ops;
  for (std::size_t i = 1; i < ops.size(); ++i) {
    if (ops[i].label.find(needle) != std::string::npos) {
      std::swap(ops[i - 1], ops[i]);
      return;
    }
  }
  SRM_CHECK_MSG(false, "swap_with_prev: no op matching '"
                           << needle << "' in thread '" << thread_name << "'");
}

}  // namespace srm::mc
