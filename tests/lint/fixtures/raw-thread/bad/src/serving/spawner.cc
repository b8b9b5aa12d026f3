// Fixture: a thread started in the single-threaded simulator.
#include <thread>

void
spawn()
{
    std::thread t([] {});
    t.join();
}
