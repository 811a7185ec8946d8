//! DHCP leasing and DNS naming.
//!
//! §II-A: "A system administrator can implement customised IP and naming
//! policies through DHCP and DNS services running on the pimaster." The
//! default policy mirrors the testbed's layout: nodes get addresses in
//! `10.0.<rack>.0/24` and names `pi-<rack>-<slot>`; bridged containers
//! lease from the same rack subnet and get `<name>.<node>.picloud` names.

use picloud_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// An IPv4 address (the testbed is IPv4-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IpAddr4(pub [u8; 4]);

impl IpAddr4 {
    /// The rack-subnet address `10.0.rack.host`.
    pub fn rack_host(rack: u8, host: u8) -> Self {
        IpAddr4([10, 0, rack, host])
    }
}

impl fmt::Display for IpAddr4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.0;
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// A client identity as DHCP sees it (a MAC stand-in).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClientId(pub u64);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client-{:012x}", self.0)
    }
}

/// A granted lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lease {
    /// Address granted.
    pub addr: IpAddr4,
    /// When the lease expires.
    pub expires: SimTime,
}

/// Errors from the DHCP server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhcpError {
    /// The rack's address pool is exhausted.
    PoolExhausted {
        /// The rack whose pool ran dry.
        rack: u8,
    },
}

impl fmt::Display for DhcpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DhcpError::PoolExhausted { rack } => {
                write!(f, "DHCP pool for rack {rack} is exhausted")
            }
        }
    }
}

impl std::error::Error for DhcpError {}

/// A per-rack-subnet DHCP server.
///
/// # Example
///
/// ```
/// use picloud_mgmt::dhcp::{ClientId, DhcpServer};
/// use picloud_simcore::SimTime;
///
/// let mut dhcp = DhcpServer::new();
/// let lease = dhcp.request(ClientId(1), 0, SimTime::ZERO)?;
/// assert_eq!(lease.addr.to_string(), "10.0.0.2");
/// # Ok::<(), picloud_mgmt::dhcp::DhcpError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DhcpServer {
    /// Active leases by client.
    leases: BTreeMap<ClientId, (u8, Lease)>,
    /// Next host octet to try per rack (2..=254; .1 is the gateway).
    next_host: BTreeMap<u8, u8>,
    /// Lease lifetime.
    lease_time: SimDuration,
}

impl Default for DhcpServer {
    /// Same as [`DhcpServer::new`]. A derived default would zero the lease
    /// time, making every lease expire the instant it is granted.
    fn default() -> Self {
        DhcpServer::new()
    }
}

impl DhcpServer {
    /// Creates a server with the default 1-hour lease time.
    pub fn new() -> Self {
        DhcpServer {
            leases: BTreeMap::new(),
            next_host: BTreeMap::new(),
            lease_time: SimDuration::from_secs(3600),
        }
    }

    /// Requests (or renews) a lease for `client` on `rack`'s subnet.
    ///
    /// Renewal returns the same address with a refreshed expiry, matching
    /// DHCP's address-stability guarantee.
    ///
    /// # Errors
    ///
    /// [`DhcpError::PoolExhausted`] when the /24 has no free host address.
    pub fn request(
        &mut self,
        client: ClientId,
        rack: u8,
        now: SimTime,
    ) -> Result<Lease, DhcpError> {
        self.expire(now);
        if let Some((r, lease)) = self.leases.get(&client).copied() {
            if r == rack {
                let renewed = Lease {
                    addr: lease.addr,
                    expires: now.saturating_add(self.lease_time),
                };
                self.leases.insert(client, (rack, renewed));
                return Ok(renewed);
            }
            // Moved racks: release the old lease and fall through.
            self.leases.remove(&client);
        }
        let in_use: Vec<u8> = self
            .leases
            .values()
            .filter(|(r, _)| *r == rack)
            // Ipv4-style address is a fixed [u8; 4] array; index 3 always exists
            .map(|(_, l)| l.addr.0[3])
            .collect();
        let start = self.next_host.get(&rack).copied().unwrap_or(2);
        // Scan the pool starting from the cursor, wrapping once.
        let candidate = (0..253u16).map(|i| 2 + ((u16::from(start) - 2 + i) % 253) as u8);
        for host in candidate {
            if !in_use.contains(&host) {
                let lease = Lease {
                    addr: IpAddr4::rack_host(rack, host),
                    expires: now.saturating_add(self.lease_time),
                };
                self.leases.insert(client, (rack, lease));
                self.next_host.insert(rack, host.wrapping_add(1).max(2));
                return Ok(lease);
            }
        }
        Err(DhcpError::PoolExhausted { rack })
    }

    /// Releases a client's lease (graceful shutdown).
    pub fn release(&mut self, client: ClientId) -> bool {
        self.leases.remove(&client).is_some()
    }

    /// Drops expired leases.
    pub fn expire(&mut self, now: SimTime) {
        self.leases.retain(|_, (_, l)| l.expires > now);
    }

    /// Active lease count.
    pub fn active_leases(&self) -> usize {
        self.leases.len()
    }

    /// The current lease for `client`, if any.
    pub fn lease_of(&self, client: ClientId) -> Option<Lease> {
        self.leases.get(&client).map(|(_, l)| *l)
    }
}

/// The pimaster's DNS: names to addresses under `.picloud`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DnsService {
    records: BTreeMap<String, IpAddr4>,
}

impl DnsService {
    /// Creates an empty zone.
    pub fn new() -> Self {
        DnsService::default()
    }

    /// The testbed's node naming policy.
    pub fn node_name(rack: u16, slot: u16) -> String {
        format!("pi-{rack}-{slot}.picloud")
    }

    /// The container naming policy.
    pub fn container_name(container: &str, node_name: &str) -> String {
        let base = node_name.strip_suffix(".picloud").unwrap_or(node_name);
        format!("{container}.{base}.picloud")
    }

    /// Registers (or replaces) a record, returning any previous address.
    pub fn register(&mut self, name: impl Into<String>, addr: IpAddr4) -> Option<IpAddr4> {
        self.records.insert(name.into(), addr)
    }

    /// Removes a record.
    pub fn unregister(&mut self, name: &str) -> Option<IpAddr4> {
        self.records.remove(name)
    }

    /// Resolves a name.
    pub fn resolve(&self, name: &str) -> Option<IpAddr4> {
        self.records.get(name).copied()
    }

    /// Number of records in the zone.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the zone is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leases_are_stable_per_client() {
        let mut dhcp = DhcpServer::new();
        let l1 = dhcp.request(ClientId(1), 0, SimTime::ZERO).unwrap();
        let l2 = dhcp
            .request(ClientId(1), 0, SimTime::from_secs(10))
            .unwrap();
        assert_eq!(l1.addr, l2.addr, "renewal keeps the address");
        assert!(l2.expires > l1.expires);
        assert_eq!(dhcp.active_leases(), 1);
    }

    #[test]
    fn distinct_clients_distinct_addresses() {
        let mut dhcp = DhcpServer::new();
        let a = dhcp.request(ClientId(1), 0, SimTime::ZERO).unwrap();
        let b = dhcp.request(ClientId(2), 0, SimTime::ZERO).unwrap();
        assert_ne!(a.addr, b.addr);
    }

    #[test]
    fn racks_have_disjoint_subnets() {
        let mut dhcp = DhcpServer::new();
        let a = dhcp.request(ClientId(1), 0, SimTime::ZERO).unwrap();
        let b = dhcp.request(ClientId(2), 3, SimTime::ZERO).unwrap();
        assert_eq!(a.addr.0[2], 0);
        assert_eq!(b.addr.0[2], 3);
    }

    #[test]
    fn pool_exhaustion_reports() {
        let mut dhcp = DhcpServer::new();
        for i in 0..253u64 {
            dhcp.request(ClientId(i), 1, SimTime::ZERO).unwrap();
        }
        let err = dhcp.request(ClientId(999), 1, SimTime::ZERO).unwrap_err();
        assert_eq!(err, DhcpError::PoolExhausted { rack: 1 });
        assert!(err.to_string().contains("exhausted"));
    }

    #[test]
    fn expiry_frees_addresses() {
        let mut dhcp = DhcpServer::new();
        for i in 0..253u64 {
            dhcp.request(ClientId(i), 1, SimTime::ZERO).unwrap();
        }
        // After the lease time everything is reclaimable.
        let later = SimTime::from_secs(3601);
        let lease = dhcp.request(ClientId(999), 1, later).unwrap();
        assert_eq!(lease.addr.0[2], 1);
        assert_eq!(dhcp.active_leases(), 1);
    }

    #[test]
    fn rack_move_changes_subnet() {
        let mut dhcp = DhcpServer::new();
        let a = dhcp.request(ClientId(7), 0, SimTime::ZERO).unwrap();
        let b = dhcp.request(ClientId(7), 2, SimTime::from_secs(1)).unwrap();
        assert_eq!(a.addr.0[2], 0);
        assert_eq!(
            b.addr.0[2], 2,
            "migration to another rack renumbers — the IP-mobility problem §III targets"
        );
    }

    #[test]
    fn release_frees_immediately() {
        let mut dhcp = DhcpServer::new();
        dhcp.request(ClientId(1), 0, SimTime::ZERO).unwrap();
        assert!(dhcp.release(ClientId(1)));
        assert!(!dhcp.release(ClientId(1)));
        assert_eq!(dhcp.active_leases(), 0);
        assert_eq!(dhcp.lease_of(ClientId(1)), None);
    }

    #[test]
    fn naming_policy() {
        assert_eq!(DnsService::node_name(2, 13), "pi-2-13.picloud");
        assert_eq!(
            DnsService::container_name("web-0", "pi-2-13.picloud"),
            "web-0.pi-2-13.picloud"
        );
    }

    #[test]
    fn dns_register_resolve_unregister() {
        let mut dns = DnsService::new();
        assert!(dns.is_empty());
        let addr = IpAddr4::rack_host(0, 5);
        assert_eq!(dns.register("pi-0-3.picloud", addr), None);
        assert_eq!(dns.resolve("pi-0-3.picloud"), Some(addr));
        let newer = IpAddr4::rack_host(0, 9);
        assert_eq!(dns.register("pi-0-3.picloud", newer), Some(addr));
        assert_eq!(dns.unregister("pi-0-3.picloud"), Some(newer));
        assert_eq!(dns.resolve("pi-0-3.picloud"), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(IpAddr4([10, 0, 1, 2]).to_string(), "10.0.1.2");
        assert!(ClientId(0xdead).to_string().contains("client-"));
    }
}
