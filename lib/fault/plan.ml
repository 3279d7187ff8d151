module Time = Skyloft_sim.Time

type window = { start : Time.t; stop : Time.t option }

let window ?(start = 0) ?stop () =
  if start < 0 then invalid_arg "Plan.window: start must be >= 0";
  (match stop with
  | Some s when s <= start -> invalid_arg "Plan.window: stop must be after start"
  | Some _ | None -> ());
  { start; stop }

let start w = w.start

let always = { start = 0; stop = None }

let active w ~at =
  at >= w.start && match w.stop with Some s -> at < s | None -> true

type ipi_loss = { p_drop : float; p_delay : float; delay : Time.t }

type spec =
  | Ipi_loss of ipi_loss
  | Core_steal of { period : Time.t; duration : Time.t }
  | Poison of { period : Time.t; service : Time.t }
  | Packet_loss of { p_drop : float }
  (* Tenant-level faults, armed against a machine-level core broker
     (Injector.arm_tenants) rather than machine hardware: *)
  | Tenant_hoard of { tenant : int }
      (* the tenant claims congestion forever: its broker sample reports a
         deep queue and full utilization regardless of reality *)
  | Tenant_stale of { tenant : int }
      (* the tenant stops reporting: its broker sample freezes at the
         first in-window value (busy never advances) *)
  | Tenant_crash of { tenant : int }
      (* the tenant's runtime dies at window start; the broker reclaims
         every core it held *)

type t = { window : window; spec : spec }

let check_prob what p =
  if p < 0.0 || p > 1.0 then
    invalid_arg (Printf.sprintf "Plan.%s: probability outside [0, 1]" what)

let ipi_loss ?(p_drop = 0.0) ?(p_delay = 0.0) ?(delay = Time.us 50) () =
  check_prob "ipi_loss" p_drop;
  check_prob "ipi_loss" p_delay;
  if delay <= 0 then invalid_arg "Plan.ipi_loss: delay must be positive";
  if p_drop = 0.0 && p_delay = 0.0 then
    invalid_arg "Plan.ipi_loss: at least one probability must be non-zero";
  { window = always; spec = Ipi_loss { p_drop; p_delay; delay } }

let core_steal ~period ~duration () =
  if period <= 0 then invalid_arg "Plan.core_steal: period must be positive";
  if duration <= 0 then invalid_arg "Plan.core_steal: duration must be positive";
  { window = always; spec = Core_steal { period; duration } }

let poison ~period ~service () =
  if period <= 0 then invalid_arg "Plan.poison: period must be positive";
  if service <= 0 then invalid_arg "Plan.poison: service must be positive";
  { window = always; spec = Poison { period; service } }

let packet_loss ~p_drop () =
  check_prob "packet_loss" p_drop;
  if p_drop = 0.0 then invalid_arg "Plan.packet_loss: p_drop must be non-zero";
  { window = always; spec = Packet_loss { p_drop } }

let check_tenant who tenant =
  if tenant < 0 then
    invalid_arg (Printf.sprintf "Plan.%s: tenant must be >= 0" who)

let tenant_hoard ?(window = always) ~tenant () =
  check_tenant "tenant_hoard" tenant;
  { window; spec = Tenant_hoard { tenant } }

let tenant_stale ?(window = always) ~tenant () =
  check_tenant "tenant_stale" tenant;
  { window; spec = Tenant_stale { tenant } }

let tenant_crash ?(window = always) ~tenant () =
  check_tenant "tenant_crash" tenant;
  { window; spec = Tenant_crash { tenant } }
