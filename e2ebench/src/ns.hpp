#pragma once
// Short names for the maestro namespaces the benchmark calls into.

namespace maestro {
namespace core {}
namespace exec {}
namespace flow {}
namespace geom {}
namespace metrics {}
namespace netlist {}
namespace place {}
namespace route {}
namespace store {}
namespace tune {}
namespace util {}
}  // namespace maestro

namespace e2e {
namespace core = maestro::core;
namespace exec = maestro::exec;
namespace flow = maestro::flow;
namespace geom = maestro::geom;
namespace metrics = maestro::metrics;
namespace netlist = maestro::netlist;
namespace place = maestro::place;
namespace route = maestro::route;
namespace store = maestro::store;
namespace tune = maestro::tune;
namespace util = maestro::util;
}  // namespace e2e
